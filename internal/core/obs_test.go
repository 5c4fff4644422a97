package core

import (
	"strings"
	"testing"

	"gimbal/internal/obs"
	"gimbal/internal/sim"
	"gimbal/internal/ssd"
	"gimbal/internal/workload"
)

// TestSwitchObservability drives contending tenants through an observed
// switch and checks that the registry and trace ring see the lifecycle:
// submits/completions counted, device latency sampled, and per-IO traces
// with distinct queue / pacing / device spans.
func TestSwitchObservability(t *testing.T) {
	loop, _, sw := rig(t, ssd.Clean)
	reg := obs.NewRegistry()
	hub := obs.NewHub(reg)
	hub.Tracer = obs.NewTracer(obs.TracerConfig{Capacity: 4096, Mode: obs.TraceFull})
	hub.Events = obs.NewEventLog(64)
	sw.AttachObs(hub, 0)
	ring := hub.Ring()

	runWorkers(loop, sw, []workload.Profile{
		{Name: "r", ReadRatio: 1, IOSize: 4096, QD: 16},
		{Name: "w", ReadRatio: 0, IOSize: 128 << 10, QD: 8, Seq: true},
	}, 1<<30, 200*sim.Millisecond, 300*sim.Millisecond)

	snap := reg.Snapshot()
	subs := obs.SumMetric(snap, "gimbal_submits_total")
	cpls := obs.SumMetric(snap, "gimbal_completions_total")
	if subs == 0 || subs != cpls {
		t.Fatalf("submits=%v completions=%v", subs, cpls)
	}
	// The registry's view is the switch's own counters, read at gather.
	st := sw.Stats()
	var trans int64
	for _, class := range st.Transitions {
		for _, n := range class {
			trans += n
		}
	}
	for name, want := range map[string]int64{
		"gimbal_submits_total":                st.Submits,
		"gimbal_completions_total":            st.Completions,
		"gimbal_pacing_stalls_total":          st.PacingStalls,
		"gimbal_cost_ticks_total":             st.CostTicks,
		"gimbal_cost_changes_total":           st.CostChanges,
		"gimbal_aborted_ios_total":            st.AbortedIOs,
		"gimbal_tenant_teardowns_total":       st.TenantTeardowns,
		"gimbal_failfast_rejects_total":       st.FailFastRejects,
		"gimbal_failfast_latches_total":       st.FailLatches,
		"gimbal_failfast_recoveries_total":    st.FailRecoveries,
		"gimbal_degrade_enters_total":         st.DegradeEnters,
		"gimbal_degrade_exits_total":          st.DegradeExits,
		"gimbal_congestion_transitions_total": trans,
	} {
		if got := int64(obs.SumMetric(snap, name)); got != want {
			t.Fatalf("%s = %d in the registry, %d in Stats()", name, got, want)
		}
	}
	if st.CostTicks == 0 || trans == 0 {
		t.Fatalf("a 500 ms contended run ticked %d cost periods and changed congestion state %d times", st.CostTicks, trans)
	}
	if obs.SumMetric(snap, "gimbal_device_latency_ns_count") == 0 {
		t.Fatal("no device latency samples")
	}
	if obs.SumMetric(snap, "gimbal_write_cost") <= 0 {
		t.Fatal("write cost gauge missing")
	}
	// A write-heavy contending mix must have hit the token pacer.
	if obs.SumMetric(snap, "gimbal_pacing_stalls_total") == 0 {
		t.Fatal("expected pacing stalls under write contention")
	}

	if ring.Total() == 0 {
		t.Fatal("no traces recorded")
	}
	var sawQueue, sawPacing, sawDevice bool
	for _, tr := range ring.Snapshot() {
		// DeviceLatency is net of GC-attributed stall, so a fully
		// GC-absorbed write span may legitimately collapse to zero.
		if tr.QueueDelay() < 0 || tr.PacingStall() < 0 || tr.DeviceLatency() < 0 || tr.GCStall() < 0 || tr.VslotWait() < 0 {
			t.Fatalf("invalid spans in %+v", tr)
		}
		if tr.Arrival > tr.Admit || tr.Admit > tr.Submit || tr.Submit > tr.DevDone || tr.DevDone > tr.Done {
			t.Fatalf("timestamps out of order: %+v", tr)
		}
		if tr.QueueDelay() > 0 {
			sawQueue = true
		}
		if tr.PacingStall() > 0 {
			sawPacing = true
		}
		if tr.DeviceLatency() > 0 {
			sawDevice = true
		}
	}
	if !sawQueue || !sawPacing || !sawDevice {
		t.Fatalf("missing distinct spans: queue=%v pacing=%v device=%v",
			sawQueue, sawPacing, sawDevice)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`gimbal_submits_total{ssd="0"}`,
		`gimbal_device_latency_ns{ssd="0",op="read",quantile="0.5"}`,
		"# TYPE gimbal_pacing_stalls_total counter",
		"# TYPE gimbal_submits_total counter",
	} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("prometheus output missing %q", want)
		}
	}
}

// TestSwitchUnobservedHasNoTraceState ensures the default switch carries no
// observer (the fast path the overhead benchmark relies on) and counts all
// the same: the counters are the switch's own state, not the observer's.
func TestSwitchUnobservedHasNoTraceState(t *testing.T) {
	loop, _, sw := rig(t, ssd.Fresh)
	runWorkers(loop, sw, []workload.Profile{
		{Name: "r", ReadRatio: 1, IOSize: 4096, QD: 4},
	}, 1<<30, 50*sim.Millisecond, 50*sim.Millisecond)
	if sw.obs != nil {
		t.Fatal("observer attached by default")
	}
	st := sw.Stats()
	if st.Submits == 0 || st.Submits != st.Completions || st.CostTicks == 0 {
		t.Fatalf("counters broken without observer: %+v", st)
	}
}
