package bench

import (
	"fmt"
	"sort"

	"gimbal/internal/fabric"
	"gimbal/internal/obs"
	"gimbal/internal/sim"
)

func init() {
	register("slo-attrib", "Tail-latency attribution: per-tenant p99.9 phase decomposition under the brownout timeline", runSLOAttribExp)
}

// sloAttribTail summarizes one tenant's p99.9 tail: the threshold itself
// plus the mean decomposed spans across the tail set (the IOs at or above
// the threshold) — "where does a tail IO's time go?".
type sloAttribTail struct {
	ios    int
	p999   int64
	phases map[string]int64 // mean ns per phase across the tail set
}

// tailDecompose computes a tenant's p99.9 attribution from its traces.
func tailDecompose(traces []obs.IOTrace) sloAttribTail {
	out := sloAttribTail{ios: len(traces), phases: map[string]int64{}}
	if len(traces) == 0 {
		return out
	}
	totals := make([]int64, len(traces))
	for i := range traces {
		totals[i] = traces[i].Total()
	}
	sort.Slice(totals, func(i, j int) bool { return totals[i] < totals[j] })
	idx := (len(totals) - 1) * 999 / 1000
	out.p999 = totals[idx]
	n := 0
	for i := range traces {
		t := &traces[i]
		if t.Total() < out.p999 {
			continue
		}
		n++
		for _, name := range obs.TracePhases {
			ns, _ := t.Phase(name)
			out.phases[name] += ns
		}
	}
	if n > 0 {
		for _, name := range obs.TracePhases {
			out.phases[name] /= int64(n)
		}
	}
	return out
}

// runSLOAttribExp reruns the chaos-brownout timeline (gimbal only, recovery
// armed) with full span tracing and the SLO engine attached, then answers
// the question the brownout rows leave open: WHERE did the faulted tenants'
// tail go, and how fast did their error budget burn while the healthy
// tenants' stayed intact. One row per tenant: IO count, the p99.9 total,
// the mean phase decomposition across the p99.9 tail set
// (fabric/queue/vslot/pacing/device/gc/complete), the SLO met fraction,
// and the burn rate over the longest window at the moment the fault window
// closed.
func runSLOAttribExp(cx *Ctx) []*Result {
	cfg, tl := chaosBrownoutConfig(cx.scale().chaosUnit, fabric.SchemeGimbal)
	// A 2ms end-to-end objective: comfortably met on the clean device,
	// hopeless during the ×200 brownout — so the burn-rate columns separate
	// the two tenant classes sharply.
	cfg.SLO = &obs.SLO{LatencyTargetNs: 2 * sim.Millisecond, LatencyGoal: 0.999}
	cfg.Trace = &obs.TracerConfig{Capacity: 1 << 17, SampleEvery: 1}
	// Burn-rate snapshot per tenant (Spec order), taken while the fault
	// window is still the recent past.
	burnAtFaultEnd := make([]float64, len(cfg.Specs))
	cfg.Events = []TimedEvent{
		{At: tl.faultEnd, Do: func(r *FioRun) {
			now := r.Loop.Now()
			wins := r.Hub.SLO.Windows()
			for i, w := range r.Workers {
				st := r.Hub.SLO.Tenant(w.Tenant().Name)
				burnAtFaultEnd[i] = st.BurnRate(len(wins)-1, now)
			}
		}},
	}
	run := cx.Execute(cfg)

	// Bucket the captured traces by tenant, preserving capture order.
	byTenant := map[string][]obs.IOTrace{}
	for _, tr := range run.Hub.Ring().Snapshot() {
		byTenant[tr.Tenant] = append(byTenant[tr.Tenant], tr)
	}

	us := func(ns int64) string { return f1(float64(ns) / 1e3) }
	res := &Result{
		ID:    "slo-attrib",
		Title: "p99.9 attribution under chaos-brownout (gimbal, full tracing): mean span decomposition across each tenant's p99.9 tail",
		Header: []string{"tenant", "ios", "p999_us", "fabric_us", "queue_us",
			"vslot_us", "pacing_us", "device_us", "gc_us", "complete_us",
			"met_pct", "burn@fault_end"},
	}
	// Workers iterate in Spec order — never the map — so the table is
	// byte-identical run to run regardless of -parallel.
	for i, w := range run.Workers {
		name := w.Tenant().Name
		tail := tailDecompose(byTenant[name])
		st := run.Hub.SLO.Tenant(name)
		res.AddRow(name, fmt.Sprint(tail.ios), us(tail.p999),
			us(tail.phases["fabric"]), us(tail.phases["queue"]),
			us(tail.phases["vslot"]), us(tail.phases["pacing"]),
			us(tail.phases["device"]), us(tail.phases["gc"]),
			us(tail.phases["complete"]),
			f1(st.MetFraction()*100), f1(burnAtFaultEnd[i]))
	}
	if ev := run.Hub.Events; ev != nil {
		kinds := map[string]bool{}
		var order []string
		for _, e := range ev.Snapshot() {
			if !kinds[e.Kind] {
				kinds[e.Kind] = true
				order = append(order, e.Kind)
			}
		}
		res.Notef("faulted tenants' p99.9 is queue-dominated (IOs stacked in DRR behind the "+
			"browned-out SSD) with a visible vslot share (the congestion clamp), while healthy "+
			"tenants stay device-bound at ~0 burn and faulted burn >> 1; correlated events: %v (%d transitions)",
			order, ev.Total())
	}
	return []*Result{res}
}
