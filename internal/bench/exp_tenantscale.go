package bench

import (
	"strconv"
	"strings"
	"time"

	"gimbal/internal/fabric"
	"gimbal/internal/nvme"
	"gimbal/internal/obs"
	"gimbal/internal/sim"
	"gimbal/internal/ssd"
	"gimbal/internal/workload"
)

func init() {
	register("tenant-scale", "Registered-tenant scaling: 100 → 100k tenants at fixed offered load", runTenantScale)
}

// Knobs as package variables so the smoke test can shrink the run the way
// determinism_test shrinks the eval windows.
var (
	tenantScalePops     = []int{100, 1_000, 10_000, 100_000}
	tenantScaleChurnPop = 100_000
	tenantScaleChurnPS  = 2000.0 // replacements/s in the churn row
	tenantScaleWarm     = int64(200 * sim.Millisecond)
	tenantScaleDur      = int64(800 * sim.Millisecond)
	tenantScaleIOPS     = 40_000.0
	tenantScaleSeries   = 8192 // obs per-name series budget (forces overflow at scale)
)

// runTenantScale sweeps the registered-tenant population at fixed offered
// load and reports what the tenant dimension costs: end-to-end latency
// quantiles, p99.9 fairness across the whole population, host-side cost
// per IO, and the observability registry's label-cardinality behavior.
// The population is driven by the workload scenario engine (Zipf 0.99
// activity, Poisson open-loop arrivals, churn in the last row), not by
// per-tenant closed-loop workers: at 100k tenants most of the population
// is a registration, not a stream — exactly the regime the lazy vslot
// redistribution and the O(1) stats accessors exist for.
func runTenantScale(cx *Ctx) []*Result {
	res := &Result{
		ID:    "tenant-scale",
		Title: "Per-IO cost and fairness vs registered-tenant population (Gimbal switch, Zipf 0.99 open loop)",
		Header: []string{"tenants", "churn_s", "completed", "shed", "aborted",
			"p50_us", "p99_us", "p999_us", "fair_p50_us", "fair_p999_us", "fair_ratio",
			"host_ns_per_io", "obs_series", "obs_overflow"},
	}
	for _, pop := range tenantScalePops {
		tenantScaleRow(cx, res, pop, 0)
	}
	tenantScaleRow(cx, res, tenantScaleChurnPop, tenantScaleChurnPS)
	res.Notef("fixed offered load (%.0f IOPS 4KB %.0f%% read) over a Zipf-0.99 population; "+
		"fair_* quantiles summarize per-tenant-slot mean latency across every slot that completed IO",
		tenantScaleIOPS, 90.0)
	res.Notef("host_ns_per_io is host wall-clock over the measured window (like live-tcp it is " +
		"machine-dependent and nondeterministic; exclude this experiment from byte-identity goldens)")
	res.Notef("obs_series counts tenant_completed_ops_total series after a SetMaxSeries(%d) budget: "+
		"the overflow series absorbs the label tail, bounding scrape size at any population", tenantScaleSeries)
	return []*Result{res}
}

// tenantScaleRow runs one population point and appends its row.
func tenantScaleRow(cx *Ctx, res *Result, pop int, churnPS float64) {
	// The rig with no worker streams: the scenario engine registers its
	// population at the switch and is its own load loop.
	rig := NewFioRun(FioConfig{Scheme: fabric.SchemeGimbal, Cond: ssd.Clean, Seed: 11})
	loop, reg := rig.Loop, rig.Reg
	reg.SetMaxSeries(tenantScaleSeries)

	cfg := workload.DefaultScenarioConfig()
	cfg.Tenants = pop
	cfg.RateIOPS = tenantScaleIOPS
	cfg.ChurnPerSec = churnPS
	cfg.Span = rig.Devices[0].Capacity()
	sc := workload.NewScenario(loop, rig.RNG, cfg, rig.Target.Pipeline(0).Gimbal)

	// Per-tenant instruments, exactly as the fabric target creates them on
	// session connect: at 100k tenants this blows through the series
	// budget and the tail collapses into the overflow series.
	counters := map[int]*obs.Counter{}
	sc.OnRegister = func(t *nvme.Tenant) {
		counters[t.ID] = reg.Counter("tenant_completed_ops_total",
			obs.L("ssd", "0", "tenant", strconv.Itoa(t.ID)))
	}
	sc.OnDone = func(io *nvme.IO, cpl nvme.Completion) {
		if cpl.Status == nvme.StatusOK {
			counters[io.Tenant.ID].Add(1)
		}
	}

	stop := loop.Now() + tenantScaleWarm + tenantScaleDur
	sc.Start(stop)
	loop.RunUntil(loop.Now() + tenantScaleWarm)
	sc.ResetStats()
	wallStart := time.Now()
	loop.RunUntil(stop)
	wall := time.Since(wallStart)
	loop.Run() // drain in-flight completions
	cx.recordObsRun(rig)

	nsPerIO := int64(0)
	if sc.Completed > 0 {
		nsPerIO = wall.Nanoseconds() / sc.Completed
	}
	series, overflow := countSeries(reg, "tenant_completed_ops_total")
	f := sc.Fairness()
	res.AddRow(
		strconv.Itoa(pop),
		f0(churnPS),
		strconv.FormatInt(sc.Completed, 10),
		strconv.FormatInt(sc.Shed, 10),
		strconv.FormatInt(sc.Errored, 10),
		us(sc.Lat.P50()), us(sc.Lat.P99()), us(sc.Lat.P999()),
		us(f.MeanP50), us(f.MeanP999), f2(f.Ratio),
		strconv.FormatInt(nsPerIO, 10),
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
