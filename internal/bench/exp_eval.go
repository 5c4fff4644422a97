package bench

import (
	"fmt"

	"gimbal/internal/fabric"
	"gimbal/internal/nvme"
	"gimbal/internal/sim"
	"gimbal/internal/ssd"
	"gimbal/internal/stats"
	"gimbal/internal/workload"
)

func init() {
	register("fig6", "Device utilization per scheme (bandwidth + avg latency)", runFig6)
	register("fig7", "Fairness: mixed IO sizes and mixed IO types (f-Util)", runFig7)
	register("fig8", "Read/write tail latency under the mixed-type workload", runFig8)
	register("fig9", "Dynamic workload: per-worker bandwidth and latency over time", runFig9)
	register("fig17", "Congestion control holds latency under mixed read load", runFig17)
	register("fig18", "Dynamic latency threshold trace (128KB random read)", runFig18)
	register("fig58", "Generalization: fairness on the Intel P3600 model (§5.8)", runFig58)
}

// evalWarm/evalDur are the evaluation experiments' warmup and measurement
// windows. They are variables (not constants) only so the determinism test
// can shrink them; production runs never mutate them.
var (
	evalWarm = 1 * sim.Second
	evalDur  = 2 * sim.Second
)

// --- Fig 6: 16 identical workers per case ---

func runFig6(cx *Ctx) []*Result {
	res := &Result{
		ID:     "fig6",
		Title:  "16 same-profile workers: aggregated bandwidth and average latency",
		Header: []string{"case", "scheme", "agg_MBps", "avg_lat_us"},
	}
	cases := []struct {
		name string
		cond ssd.Condition
		prof workload.Profile
	}{
		{"C-R", ssd.Clean, read128K()},
		{"C-W", ssd.Clean, write128K()},
		{"F-R", ssd.Fragmented, read4K()},
		{"F-W", ssd.Fragmented, write4K()},
	}
	for _, c := range cases {
		for _, scheme := range fabric.AllSchemes {
			run := cx.cachedRun(fmt.Sprintf("fig6|%s|%s", c.name, scheme),
				FioConfig{Scheme: scheme, Cond: c.cond, Specs: repeat(c.prof, 16),
					Warm: evalWarm, Dur: evalDur, Seed: 7})
			bw := run.AggBandwidth(nil)
			var lat int64
			var n uint64
			for _, w := range run.Workers {
				h := opLat(w)
				lat += int64(h.Mean() * float64(h.Count()))
				n += h.Count()
			}
			avg := float64(lat) / float64(max(1, int64(n))) / 1e3
			res.AddRow(c.name, scheme.String(), f0(bw), f0(avg))
		}
	}
	res.Notef("paper shape: Gimbal ≈ FlashFQ bandwidth, ~x2.4/x6.6 over ReFlex on C-R/C-W, " +
		"x2.6 over Parda on F-R; Gimbal latency far below FlashFQ/ReFlex")
	return []*Result{res}
}

// --- Fig 7 scenarios (shared with Fig 8) ---

type fairCase struct {
	name   string
	cond   ssd.Condition
	groupA workload.Profile
	nA     int
	groupB workload.Profile
	nB     int
}

func fairCases() []fairCase {
	seqRead128 := read128K()
	seqRead128.Seq = true
	wr128rand := write128K()
	wr128rand.Seq = false
	return []fairCase{
		// 7a/7d: mixed IO sizes, Clean (16x 4KB read + 4x 128KB read).
		{"clean-sizes", ssd.Clean, read4K(), 16, read128K(), 4},
		// 7b/7e: mixed types, Clean (128KB seq read vs 128KB rand write).
		{"clean-types", ssd.Clean, seqRead128, 16, wr128rand, 16},
		// 7c/7f: mixed types, Fragmented (4KB rand read vs 4KB rand write).
		{"frag-types", ssd.Fragmented, read4K(), 16, write4K(), 16},
	}
}

// config is the case under one scheme at the evaluation windows: group A's
// workers named "A", then group B's named "B".
func (c fairCase) config(scheme fabric.Scheme) FioConfig {
	a, b := c.groupA, c.groupB
	a.Name, b.Name = "A", "B"
	return FioConfig{Scheme: scheme, Cond: c.cond, Specs: append(repeat(a, c.nA), repeat(b, c.nB)...),
		Warm: evalWarm, Dur: evalDur, Seed: 7}
}

func fairRun(cx *Ctx, c fairCase, scheme fabric.Scheme) *FioRun {
	return cx.cachedRun(fmt.Sprintf("fair|%s|%s", c.name, scheme), c.config(scheme))
}

// groupBWAndFUtil returns one worker group's mean per-worker bandwidth and
// f-Util against its standalone maximum on a device of the given params.
func groupBWAndFUtil(cx *Ctx, run *FioRun, c fairCase, group string, params ssd.Params) (perWorkerBW, fUtil float64) {
	prof, n := c.groupA, c.nA
	if group == "B" {
		prof, n = c.groupB, c.nB
	}
	standalone := cx.StandaloneMax(prof, c.cond, params)
	var bw, sum float64
	for _, w := range run.Workers {
		if w.Profile().Name == group {
			bw += w.BandwidthMBps()
			sum += fUtilOf(w.BandwidthMBps(), standalone, c.nA+c.nB)
		}
	}
	return bw / float64(n), sum / float64(n)
}

func fUtilOf(bw, standalone float64, workers int) float64 {
	if standalone <= 0 {
		return 0
	}
	return bw / (standalone / float64(workers))
}

func runFig7(cx *Ctx) []*Result {
	res := &Result{
		ID:    "fig7",
		Title: "Fairness across IO sizes and types: per-group bandwidth and f-Util",
		Header: []string{"scenario", "scheme", "groupA", "A_worker_MBps", "A_fUtil",
			"groupB", "B_worker_MBps", "B_fUtil"},
	}
	for _, c := range fairCases() {
		for _, scheme := range fabric.AllSchemes {
			run := fairRun(cx, c, scheme)
			aBW, aF := groupBWAndFUtil(cx, run, c, "A", ssd.Params{})
			bBW, bF := groupBWAndFUtil(cx, run, c, "B", ssd.Params{})
			res.AddRow(c.name, scheme.String(),
				groupLabel(c.groupA), f0(aBW), f2(aF),
				groupLabel(c.groupB), f0(bBW), f2(bF))
		}
	}
	res.Notef("ideal f-Util = 1.0 for every group; paper: Gimbal's utilization deviation is " +
		"x1.9-x8.7 lower than the baselines, read/write f-Util gap 13.8%% (clean) and 3.8%% (frag)")
	return []*Result{res}
}

func groupLabel(p workload.Profile) string {
	kind := "rd"
	if p.ReadRatio == 0 {
		kind = "wr"
	}
	return fmt.Sprintf("%dK-%s", p.IOSize>>10, kind)
}

// --- Fig 8: latency view of the mixed-type runs ---

func runFig8(cx *Ctx) []*Result {
	res := &Result{
		ID:    "fig8",
		Title: "Mixed read/write workload latency percentiles (us)",
		Header: []string{"condition", "scheme", "rd_avg", "rd_p99", "rd_p999",
			"wr_avg", "wr_p99", "wr_p999"},
	}
	for _, c := range fairCases()[1:] { // clean-types, frag-types
		for _, scheme := range fabric.AllSchemes {
			run := fairRun(cx, c, scheme)
			rd, wr := mergedHists(run)
			res.AddRow(c.name, scheme.String(),
				f0(rd.Mean()/1e3), us(rd.P99()), us(rd.P999()),
				f0(wr.Mean()/1e3), us(wr.P99()), us(wr.P999()))
		}
	}
	res.Notef("paper: Gimbal cuts p99 read/write by ~49-63%% vs Parda; FlashFQ/ReFlex " +
		"tails inflate without flow control")
	return []*Result{res}
}

// mergedHists merges all workers' read and write histograms.
func mergedHists(run *FioRun) (rd, wr *stats.Histogram) {
	rd, wr = stats.NewHistogram(), stats.NewHistogram()
	for _, w := range run.Workers {
		rd.Merge(w.ReadLat)
		wr.Merge(w.WriteLat)
	}
	return
}

// --- Fig 9: dynamic workload ---

func runFig9(cx *Ctx) []*Result {
	res := &Result{
		ID:    "fig9",
		Title: "Gimbal under a dynamic workload (8 readers; writers join, readers leave)",
		Header: []string{"t_s", "readers", "writers", "rd_worker_MBps", "wr_worker_MBps",
			"rd_lat_us", "wr_lat_us", "write_cost"},
	}
	reader, writer := stream("R", 1, 128<<10, 8), stream("W", 0, 4096, 16)
	reader.RateLimitBps, writer.RateLimitBps = 200e6, 60e6

	const step = 5 * sim.Second
	var events []TimedEvent
	wrng := sim.NewRNG(123)
	for i := 0; i < 8; i++ {
		at := int64(i+1) * step
		events = append(events, TimedEvent{At: at, Do: func(r *FioRun) {
			w := r.AddWorker(Spec{Profile: writer}, wrng.Fork(), "W")
			w.Start(r.StopAt)
		}})
	}
	for i := 0; i < 8; i++ {
		at := 45*sim.Second + int64(i)*step
		events = append(events, TimedEvent{At: at, Do: func(r *FioRun) {
			for _, w := range r.Workers {
				if w.Profile().Name == "R" && !wStopped(w) {
					w.Stop()
					break
				}
			}
		}})
	}

	// Per-second sampling of per-class worker bandwidth and the switch's
	// raw device latency EWMAs.
	lastBytes := map[*workload.Worker]int64{}
	sample := func(now int64, r *FioRun) {
		var nR, nW int
		var rBW, wBW float64
		for _, w := range r.Workers {
			bw := float64(w.Meter.Bytes()-lastBytes[w]) / 1e6 // MB over the one-second period
			lastBytes[w] = w.Meter.Bytes()
			if w.Profile().Name == "R" {
				if !wStopped(w) {
					nR++
					rBW += bw
				}
			} else {
				nW++
				wBW += bw
			}
		}
		if nR > 0 {
			rBW /= float64(nR)
		}
		if nW > 0 {
			wBW /= float64(nW)
		}
		g := r.Target.Pipeline(0).Gimbal
		rm, wm := g.Monitors()
		res.AddRow(f0(float64(now)/1e9), fmt.Sprint(nR), fmt.Sprint(nW),
			f1(rBW), f1(wBW), f0(rm.EWMA()/1e3), f0(wm.EWMA()/1e3), f1(g.WriteCost()))
	}
	cx.Execute(FioConfig{Scheme: fabric.SchemeGimbal, Cond: ssd.Fragmented, Specs: repeat(reader, 8),
		Dur: 90 * sim.Second, Seed: 7, Events: events, Sample: sample, SamplePeriod: 1 * sim.Second})
	res.Notef("paper shape: first writer completes at buffer latency (~70us) with cost→1; " +
		"as writers accumulate, latency grows >10x, cost rises, and write workers converge " +
		"to the fair share below their 60 MB/s cap")
	return []*Result{res}
}

func wStopped(w *workload.Worker) bool { return w.Inflight() == 0 && w.Stopped() }

// --- Fig 17: latency with and without congestion control ---

func runFig17(cx *Ctx) []*Result {
	res := &Result{
		ID:     "fig17",
		Title:  "4KB/128KB mixed read load: average latency and bandwidth over time",
		Header: []string{"t_s", "scheme", "avg_lat_us", "agg_MBps"},
	}
	for _, scheme := range []fabric.Scheme{fabric.SchemeVanilla, fabric.SchemeGimbal} {
		var sum, n, bytes int64 // since the last sample
		var rows [][]string
		run := NewFioRun(FioConfig{Scheme: scheme, Cond: ssd.Clean,
			Specs: append(repeat(read4K(), 16), repeat(read128K(), 4)...),
			Dur:   20 * sim.Second, Seed: 7, SamplePeriod: 500 * sim.Millisecond,
			Sample: func(now int64, _ *FioRun) {
				lat := 0.0
				if n > 0 {
					lat = float64(sum) / float64(n) / 1e3
				}
				bw := float64(bytes) / 1e6 / 0.5
				rows = append(rows, []string{f1(float64(now) / 1e9), scheme.String(), f0(lat), f0(bw)})
				sum, n, bytes = 0, 0, 0
			}})
		for _, w := range run.Workers {
			w.OnDone = func(io *nvme.IO, _ nvme.Completion) {
				// Device-observed service time (what Fig 17 plots): in a
				// closed loop the end-to-end latency is fixed by Little's
				// law, while the device latency shows whether the CC keeps
				// the internal queue shallow. The sessions carry no retry
				// policy, so io is the IO the Submitter stamped.
				sum += io.DeviceLatency()
				n++
				bytes += int64(io.Size)
			}
		}
		cx.Run(run)
		// Thin the series: report every 2s.
		for i, r := range rows {
			if i%4 == 3 {
				res.Rows = append(res.Rows, r)
			}
		}
	}
	res.Notef("paper shape: without CC the device latency sits far above the threshold band " +
		"for similar bandwidth; Gimbal holds the average delay in a stable range near the device max")
	return []*Result{res}
}

// --- Fig 18: threshold trace ---

func runFig18(cx *Ctx) []*Result {
	res := &Result{
		ID:     "fig18",
		Title:  "Dynamic latency threshold vs EWMA latency (128KB random read)",
		Header: []string{"t_ms", "ewma_us", "thresh_us"},
	}
	var rows [][]string
	sample := func(now int64, r *FioRun) {
		g := r.Target.Pipeline(0).Gimbal
		rm, _ := g.Monitors()
		rows = append(rows, []string{f0(float64(now) / 1e6), f0(rm.EWMA() / 1e3), f0(rm.Threshold() / 1e3)})
	}
	cx.Execute(FioConfig{
		Scheme: fabric.SchemeGimbal, Cond: ssd.Clean,
		Specs: repeat(read128K(), 16),
		Warm:  0, Dur: 3 * sim.Second, Seed: 7,
		Sample: sample, SamplePeriod: 50 * sim.Millisecond,
	})
	res.Rows = rows
	res.Notef("paper shape: the threshold decays toward the EWMA between signals and jumps " +
		"toward Thresh_max when the EWMA crosses it; under load the EWMA hits it repeatedly")
	return []*Result{res}
}

// --- Fig 58 (§5.8): P3600 generalization ---

func runFig58(cx *Ctx) []*Result {
	res := &Result{
		ID:     "fig58",
		Title:  "Gimbal f-Util on the Intel P3600 model (Thresh_max = 3ms)",
		Header: []string{"condition", "rd_fUtil", "wr_fUtil"},
	}
	p3600 := ssd.P3600()
	gimbalCfg := func(tc *fabric.TargetConfig) {
		tc.Gimbal.Latency.ThreshMax = 3_000_000
	}
	for _, c := range fairCases()[1:] {
		cfg := c.config(fabric.SchemeGimbal)
		cfg.Params, cfg.GimbalCfg = p3600, gimbalCfg
		run := cx.Execute(cfg)
		_, aF := groupBWAndFUtil(cx, run, c, "A", p3600)
		_, bF := groupBWAndFUtil(cx, run, c, "B", p3600)
		res.AddRow(c.name, f2(aF), f2(bF))
	}
	res.Notef("paper: 0.63/0.72 read/write f-Util clean, 0.58/0.90 fragmented")
	return []*Result{res}
}
