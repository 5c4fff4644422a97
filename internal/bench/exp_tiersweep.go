package bench

import (
	"math"

	"gimbal/internal/fabric"
	"gimbal/internal/fault"
	"gimbal/internal/sim"
	"gimbal/internal/ssd"
	"gimbal/internal/tier"
	"gimbal/internal/workload"
)

func init() {
	register("tier-sweep",
		"Fast-tier sizing: hit ratio, read tail, fairness, and NAND relief vs tier size (Zipf + brownout)",
		runTierSweepExp)
}

// Knobs are variables (not constants) only so the smoke test can shrink
// them; production runs never mutate them.
var (
	tierSweepCapacity = int64(1 << 30) // NAND usable bytes
	tierSweepFracs    = []float64{0, 0.01, 0.05, 0.10}
	tierSweepWarm     = 300 * sim.Millisecond
	tierSweepDur      = 700 * sim.Millisecond
	tierSweepReaders  = 3
	tierSweepWriters  = 2
	tierSweepTheta    = 0.99
	// Writers offer a fixed load (per the paper's rate-limited workers)
	// rather than a closed loop: absorbing a write must relieve NAND, not
	// invite a faster writer to re-saturate it.
	tierSweepWriteBps = int64(48e6)
	// A longer linger than the device default maximizes overwrite
	// absorption under the skewed write stream.
	tierSweepLinger = 10 * sim.Millisecond
)

// tierSweepSpecs is the shared tenant mix: skewed 4KB readers plus skewed
// 4KB writers on a fragmented device — the regime where NAND GC sets the
// read tail and a small fast tier can absorb most of the traffic.
func tierSweepSpecs() []Spec {
	rd, wr := stream("zrd4k", 1, 4096, 32), stream("zwr4k", 0, 4096, 8)
	rd.Zipf, wr.Zipf, wr.RateLimitBps = tierSweepTheta, tierSweepTheta, tierSweepWriteBps
	return append(repeat(rd, tierSweepReaders), repeat(wr, tierSweepWriters)...)
}

// tierSweepConfig builds one run at the given fast-tier fraction of NAND
// capacity; frac 0 is the untiered baseline (Tier nil — the exact seed
// datapath, not a zero-sized cache).
func tierSweepConfig(frac float64) FioConfig {
	params := ssd.DCT983()
	params.UsableBytes = tierSweepCapacity
	cfg := FioConfig{
		Scheme: fabric.SchemeGimbal,
		Cond:   ssd.Fragmented,
		Params: params,
		Specs:  tierSweepSpecs(),
		Warm:   tierSweepWarm,
		Dur:    tierSweepDur,
		Seed:   23,
	}
	if frac > 0 {
		tp := tier.DefaultParams(int64(frac * float64(tierSweepCapacity)))
		tp.DestageDelay = tierSweepLinger
		cfg.Tier = &tp
	}
	return cfg
}

// tierPcts renders the tier's read hit ratio and the fraction of writes it
// absorbed, in percent; "-" for an untiered run.
func tierPcts(r *FioRun) (hit, writeBack string) {
	if len(r.Tiers) == 0 {
		return "-", "-"
	}
	pct := func(part, rest int64) string {
		if part+rest == 0 {
			return f1(0)
		}
		return f1(float64(part) / float64(part+rest) * 100)
	}
	s := r.Tiers[0].Stats()
	return pct(s.Hits, s.Misses), pct(s.WriteBacks, s.WriteArounds)
}

// tierFairDevPct measures fairness as the worst relative deviation of any
// worker's bandwidth from its group (reader/writer) mean, in percent.
// Identical tenants should deliver identical shares; a tier must not let
// whoever's hot set got resident first starve the rest.
func tierFairDevPct(r *FioRun) float64 {
	worst := 0.0
	for _, readers := range []bool{true, false} {
		var ws []*workload.Worker
		for _, w := range r.Workers {
			if (w.Profile().ReadRatio == 1) == readers {
				ws = append(ws, w)
			}
		}
		var sum float64
		for _, w := range ws {
			sum += w.BandwidthMBps()
		}
		if len(ws) == 0 || sum == 0 {
			continue
		}
		mean := sum / float64(len(ws))
		for _, w := range ws {
			if d := math.Abs(w.BandwidthMBps()-mean) / mean; d > worst {
				worst = d
			}
		}
	}
	return worst * 100
}

func runTierSweepExp(cx *Ctx) []*Result {
	sweep := &Result{
		ID:    "tier-sweep",
		Title: "Fast-tier size sweep under Zipf-0.99 readers + writers on fragmented NAND",
		Header: []string{"tier_pct", "hit_pct", "wb_pct", "p999_rd_us",
			"rd_MBps", "wr_MBps", "fair_dev_pct", "nand_wa", "wcost"},
	}
	for _, frac := range tierSweepFracs {
		cfg := tierSweepConfig(frac)
		// The estimate decays once the run drains; sample its peak during
		// the measured window so the column shows the model responding.
		var wcost float64
		cfg.SamplePeriod = cfg.Dur / 16
		cfg.Sample = func(now int64, r *FioRun) {
			if now <= cfg.Warm {
				return
			}
			if c := r.Target.Pipeline(0).Gimbal.WriteCost(); c > wcost {
				wcost = c
			}
		}
		run := cx.Execute(cfg)
		rd := run.AggBandwidth(func(w *workload.Worker) bool { return w.Profile().ReadRatio == 1 })
		wr := run.AggBandwidth(func(w *workload.Worker) bool { return w.Profile().ReadRatio == 0 })
		hit, wb := tierPcts(run)
		rdLat, _ := mergedHists(run)
		sweep.AddRow(f1(frac*100), hit, wb,
			us(rdLat.P999()), f0(rd), f0(wr), f1(tierFairDevPct(run)),
			f2(run.Devices[0].WriteAmplification()), f2(wcost))
	}
	sweep.Notef("target shape: hit ratio tracks the Zipf mass of the resident fraction; " +
		"p99.9 read latency at 10%% tier ≥2x better than untiered (write absorption relieves GC); " +
		"fairness deviation no worse than untiered")

	chaos := &Result{
		ID:    "tier-sweep-brownout",
		Title: "NAND brownout ×8 mid-run: does the tier hold the read path up?",
		Header: []string{"tier_pct", "hit_pct", "p999_rd_us", "pre_MBps",
			"fault_MBps", "retention_pct"},
	}
	for _, frac := range []float64{0, 0.10} {
		chaos.AddRow(tierBrownoutRow(cx, frac)...)
	}
	chaos.Notef("fault_MBps = reader bandwidth during the brownout; the tier is stacked " +
		"above the fault wrapper, so resident reads ride out the slowdown and the tiered " +
		"run delivers more during the fault; the bypass window (tier faulted too) must " +
		"degrade to NAND, not wedge")
	return []*Result{sweep, chaos}
}

// tierBrownoutRow runs the chaos timeline at one tier fraction: the NAND
// browns out ×8 for the middle half of the measured window, and — tiered
// runs only — a short tier-bypass fault overlaps the end of the brownout
// to exercise the degraded path.
func tierBrownoutRow(cx *Ctx, frac float64) []string {
	cfg := tierSweepConfig(frac)
	warm, dur := cfg.Warm, cfg.Dur
	faultAt := warm + dur/4
	faultDur := dur / 2
	events := []fault.Event{
		{Kind: fault.SSDBrownout, At: faultAt, Dur: faultDur, SSD: 0, Factor: 8},
	}
	if frac > 0 {
		events = append(events, fault.Event{
			Kind: fault.SSDTierBypass, At: faultAt + faultDur*3/4, Dur: faultDur / 4, SSD: 0,
		})
	}
	cfg.Faults = &fault.Plan{Seed: 23, Events: events}

	// One group: the readers (the first tierSweepReaders specs).
	run, samples := cx.executeSampled(cfg, dur/16, tierSweepReaders)
	var preBytes, faultBytes int64
	var preNs, faultNs int64
	last, lastAt := int64(0), warm
	for _, s := range samples {
		d, dt := s.bytes[0]-last, s.at-lastAt
		last, lastAt = s.bytes[0], s.at
		switch {
		case s.at <= faultAt:
			preBytes += d
			preNs += dt
		case s.at <= faultAt+faultDur:
			faultBytes += d
			faultNs += dt
		}
	}
	pre, during := mbps(preBytes, preNs), mbps(faultBytes, faultNs)
	retention := 0.0
	if pre > 0 {
		retention = during / pre * 100
	}
	hit, _ := tierPcts(run)
	rdLat, _ := mergedHists(run)
	return []string{f1(frac * 100), hit, us(rdLat.P999()),
		f0(pre), f0(during), f1(retention)}
}
