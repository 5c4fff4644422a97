package bench

import (
	"strconv"
	"strings"

	"gimbal/internal/fabric"
	"gimbal/internal/nvme"
	"gimbal/internal/obs"
	"gimbal/internal/ssd"
	"gimbal/internal/workload"
)

func init() {
	register("tenant-scale", "Registered-tenant scaling: 100 → 100k tenants at fixed offered load", runTenantScale)
}

// runTenantScale sweeps the registered-tenant population at fixed offered
// load and reports what the tenant dimension costs: end-to-end latency
// quantiles, p99.9 fairness across the whole population, and the
// observability registry's label-cardinality behavior. Host time per IO on
// the same rig is BenchmarkTenantScale's. The population is driven by the
// workload scenario engine (Zipf 0.99 activity, Poisson open-loop
// arrivals, churn in the last row), not by per-tenant closed-loop workers:
// at 100k tenants most of the population is a registration, not a stream —
// exactly the regime the lazy vslot redistribution and the O(1) stats
// accessors exist for.
func runTenantScale(cx *Ctx) []*Result {
	res := &Result{
		ID:    "tenant-scale",
		Title: "Per-IO cost and fairness vs registered-tenant population (Gimbal switch, Zipf 0.99 open loop)",
		Header: []string{"tenants", "churn_s", "completed", "shed", "aborted",
			"p50_us", "p99_us", "p999_us", "fair_p50_us", "fair_p999_us", "fair_ratio",
			"obs_series", "obs_overflow"},
	}
	ts := cx.scale().tenants
	for _, pop := range ts.pops {
		tenantScaleRow(cx, res, pop, 0)
	}
	tenantScaleRow(cx, res, ts.churnPop, ts.churnPS)
	res.Notef("fixed offered load (%.0f IOPS 4KB %.0f%% read) over a Zipf-0.99 population; "+
		"fair_* quantiles summarize per-tenant-slot mean latency across every slot that completed IO",
		ts.iops, 90.0)
	res.Notef("obs_series counts tenant_completed_ops_total series after a SetMaxSeries(%d) budget: "+
		"the overflow series absorbs the label tail, bounding scrape size at any population", ts.series)
	return []*Result{res}
}

// tenantScaleRig builds one population point at size: the rig with no
// worker streams and the scenario engine, which registers its population at
// the switch, as its one load. events are armed by Ctx.Run.
func tenantScaleRig(size Size, pop int, churnPS float64, events ...TimedEvent) (*FioRun, *workload.Scenario) {
	ts := size.scale().tenants
	rig := NewFioRun(FioConfig{Scheme: fabric.SchemeGimbal, Cond: ssd.Clean, Seed: 11,
		Warm: ts.window.warm, Dur: ts.window.dur, Events: events})
	rig.Reg.SetMaxSeries(ts.series)

	cfg := workload.DefaultScenarioConfig()
	cfg.Tenants = pop
	cfg.RateIOPS = ts.iops
	cfg.ChurnPerSec = churnPS
	cfg.Span = rig.Devices[0].Capacity()
	sc := workload.NewScenario(rig.Loop, rig.RNG, cfg, rig.Target.Pipeline(0).Gimbal)

	// Per-tenant instruments, exactly as the fabric target creates them on
	// session connect: at 100k tenants this blows through the series
	// budget and the tail collapses into the overflow series.
	counters := map[int]*obs.Counter{}
	sc.OnRegister = func(t *nvme.Tenant) {
		counters[t.ID] = rig.Reg.Counter("tenant_completed_ops_total",
			obs.L("ssd", "0", "tenant", strconv.Itoa(t.ID)))
	}
	sc.OnDone = func(io *nvme.IO, cpl nvme.Completion) {
		if cpl.Status == nvme.StatusOK {
			counters[io.Tenant.ID].Add(1)
		}
	}
	rig.loads = append(rig.loads, sc)
	return rig, sc
}

// tenantScaleRow runs one population point and appends its row.
func tenantScaleRow(cx *Ctx, res *Result, pop int, churnPS float64) {
	rig, sc := tenantScaleRig(cx.size, pop, churnPS)
	cx.Run(rig)

	series, overflow := countSeries(rig.Reg, "tenant_completed_ops_total")
	f := sc.Fairness()
	res.AddRow(
		strconv.Itoa(pop),
		f0(churnPS),
		strconv.FormatInt(sc.Completed, 10),
		strconv.FormatInt(sc.Shed, 10),
		strconv.FormatInt(sc.Errored, 10),
		us(sc.Lat.P50()), us(sc.Lat.P99()), us(sc.Lat.P999()),
		us(f.MeanP50), us(f.MeanP999), f2(f.Ratio),
		strconv.Itoa(series),
		strconv.Itoa(overflow),
	)
}

// countSeries gathers the registry and counts the samples carrying the
// metric name, separating the overflow collapse series.
func countSeries(reg *obs.Registry, name string) (series, overflow int) {
	for _, s := range reg.Gather() {
		if s.Name != name {
			continue
		}
		if strings.Contains(string(s.Labels), `overflow="true"`) {
			overflow++
		} else {
			series++
		}
	}
	return series, overflow
}
