package core

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"gimbal/internal/nvme"
	"gimbal/internal/obs"
	"gimbal/internal/sim"
	"gimbal/internal/ssd"
	"gimbal/internal/workload"
)

// TestSwitchObservability drives contending tenants through an observed
// switch and checks that the registry sees the lifecycle: submits and
// completions counted, and distinct queue / pacing / device spans in the
// span histograms. (Per-IO traces are the pipeline's; TestPhaseLaw in
// internal/bench checks them.)
func TestSwitchObservability(t *testing.T) {
	loop, _, sw := rig(t, ssd.Clean)
	reg := obs.NewRegistry()
	hub := obs.NewHub(reg)
	hub.Events = obs.NewEventLog(64)
	sw.AttachObs(hub, 0)

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

	for _, span := range []string{"gimbal_queue_delay_ns", "gimbal_pacing_stall_ns", "gimbal_device_latency_ns"} {
		if obs.SumMetric(snap, span+"_sum") <= 0 {
			t.Fatalf("%s recorded no time", span)
		}
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

// stagedRun drives n completions, 30% of them writes, from two closed-loop
// tenants through a switch over a NULL device, observed into stage; the
// oracle registry holds the same series (the switch was attached to it
// first) with the span histograms recorded IO by IO from each IO's Done,
// at the instant the switch stamps its timeline.
func stagedRun(t *testing.T, n int) (stage, oracle *obs.Registry) {
	t.Helper()
	loop := sim.NewLoop()
	sw := New(loop, ssd.NewNull(loop, 1<<30, 2*sim.Microsecond), DefaultConfig())
	oracle, stage = obs.NewRegistry(), obs.NewRegistry()
	sw.AttachObs(obs.NewHub(oracle), 0) // its stage stays empty: the next attach replaces it
	sw.AttachObs(obs.NewHub(stage), 0)
	lb, rd, wr := obs.L("ssd", "0"), obs.L("ssd", "0", "op", "read"), obs.L("ssd", "0", "op", "write")
	queue, vslot := oracle.Histogram("gimbal_queue_delay_ns", lb), oracle.Histogram("gimbal_vslot_wait_ns", lb)
	pacing, gc := oracle.Histogram("gimbal_pacing_stall_ns", lb), oracle.Histogram("gimbal_gc_stall_ns", lb)
	readDev, writeDev := oracle.Histogram("gimbal_device_latency_ns", rd), oracle.Histogram("gimbal_device_latency_ns", wr)
	rng := sim.NewRNG(5)
	submitted, completed := 0, 0
	var submit func(tn *nvme.Tenant)
	done := func(io *nvme.IO, _ nvme.Completion) {
		completed++
		var tl obs.Timeline
		tl.Stamp(io, loop.Now())
		queue.Record(tl.PhaseNs(obs.PhaseQueue))
		vslot.Record(tl.PhaseNs(obs.PhaseVslot))
		pacing.Record(tl.PhaseNs(obs.PhasePacing))
		gc.Record(tl.PhaseNs(obs.PhaseGC))
		if io.Op.IsWrite() {
			writeDev.Record(tl.PhaseNs(obs.PhaseDevice))
		} else {
			readDev.Record(tl.PhaseNs(obs.PhaseDevice))
		}
		submit(io.Tenant)
	}
	submit = func(tn *nvme.Tenant) {
		if submitted == n {
			return
		}
		submitted++
		op := nvme.OpRead
		if rng.Float64() < 0.3 {
			op = nvme.OpWrite
		}
		sw.Enqueue(&nvme.IO{Op: op, Offset: rng.Int63n(1<<16) * 4096, Size: 4096 << rng.Intn(3),
			Priority: nvme.PriorityNormal, Tenant: tn, Done: done})
	}
	for i := 0; i < 2; i++ {
		tn := nvme.NewTenant(i, fmt.Sprintf("t%d", i))
		sw.Register(tn)
		for j := 0; j < 16; j++ {
			submit(tn)
		}
	}
	loop.Run()
	if completed != n {
		t.Fatalf("%d of %d IOs completed", completed, n)
	}
	return stage, oracle
}

// TestSpanStageExportsAsRecorded: the switch stages its span samples and
// folds them into the histograms at 256 IOs and whenever a collection reads
// a span histogram. After 3·256+17 completions, 17 of them staged, each
// exporter — Gather, Snapshot, WritePrometheus and an obs.Group — renders
// the staged registry byte for byte as the oracle's, recorded IO by IO.
// Each exporter reads a fresh run, so one that reads the histograms without
// folding finds the last 17 IOs missing.
func TestSpanStageExportsAsRecorded(t *testing.T) {
	const n = 3*spanStage + 17
	gather := func(r *obs.Registry) string {
		var b strings.Builder
		for _, s := range r.Gather() {
			fmt.Fprintf(&b, "%s{%s} %#x\n", s.Name, s.Labels, math.Float64bits(s.Value))
		}
		return b.String()
	}
	snapshot := func(r *obs.Registry) string {
		snap := r.Snapshot()
		keys := make([]string, 0, len(snap))
		for k := range snap {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "%s %#x\n", k, math.Float64bits(snap[k]))
		}
		return b.String()
	}
	prometheus := func(r *obs.Registry) string {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	group := func(r *obs.Registry) string {
		var b strings.Builder
		if err := obs.NewGroup(obs.NewRegistry(), r).WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	for _, c := range []struct {
		name   string
		export func(*obs.Registry) string
	}{{"Gather", gather}, {"Snapshot", snapshot}, {"WritePrometheus", prometheus}, {"Group", group}} {
		t.Run(c.name, func(t *testing.T) {
			stage, oracle := stagedRun(t, n)
			got, want := c.export(stage), c.export(oracle)
			if got != want {
				t.Fatalf("staged export differs from per-IO recording:\n--- staged\n%s--- per IO\n%s", got, want)
			}
			if !strings.Contains(got, fmt.Sprintf("gimbal_queue_delay_ns_count{ssd=\"0\"} %d", n)) &&
				!strings.Contains(got, fmt.Sprintf("gimbal_queue_delay_ns_count{ssd=\"0\"} %#x", math.Float64bits(n))) {
				t.Fatalf("export does not count %d queue-delay samples:\n%s", n, got)
			}
		})
	}
}
