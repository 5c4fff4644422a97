package main

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"

	"gimbal/internal/fabric"
	"gimbal/internal/stats"
)

// result is what one run reports.
type result struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	notes     []string // extra header lines
}

func newResult() *result { return &result{metrics: map[string]float64{}} }

// cpuNs returns the process's user+system CPU time in nanoseconds and its
// context switches (voluntary + involuntary).
func cpuNs() (ns int64, ctxsw int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return ru.Utime.Nano() + ru.Stime.Nano(), ru.Nvcsw + ru.Nivcsw
}

// windows returns how many measured batches a phase runs for -seconds:
// never fewer than 15.
func windows(seconds int, perSec float64) int {
	n := int(math.Round(float64(seconds) * perSec))
	if n < 15 {
		n = 15
	}
	return n
}

// precondSeed derives the seed of a device's pre-conditioning pass. rep 0
// is the measured rig; reps ≥ 1 are the cold set-ups, whose distinct seeds
// make the FTL snapshot cache miss every time.
func precondSeed(seed uint64, rep int) uint64 {
	return (seed+1)*0x9e3779b97f4a7c15 + uint64(rep)
}

// measureSetup times cold builds of the workload's rig and returns the median
// in seconds, each build divided by the yardstick's slowdown (one tick per
// tenth of the builds); the first build is discarded.
func measureSetup(def *simDef, seed uint64, reps int, y *yardstick) float64 {
	var secs []float64
	every := (reps + 9) / 10
	slow := 1.0
	for i := 0; i <= reps; i++ {
		if i > 0 && (i-1)%every == 0 {
			slow = y.tick()
		}
		runtime.GC()
		t0 := time.Now()
		buildSimRig(def, fabric.SchemeGimbal, def.tenants, seed, precondSeed(seed, i+1), nil)
		if i > 0 {
			secs = append(secs, time.Since(t0).Seconds()/slow)
		}
	}
	return median(secs)
}

// standaloneMax measures the paper's §5.1 denominator for one tenant
// profile: its bandwidth (MB/s) alone on a vanilla target over the same
// device stack.
func standaloneMax(def *simDef, t tenantDef, seed uint64) (mbps float64, err error) {
	t.RateLimitBps = 0
	r := buildSimRig(def, fabric.SchemeVanilla, []tenantDef{t}, seed, precondSeed(seed, 0), nil)
	r.start(math.MaxInt64)
	r.runFor(def.calibWarmNs)
	s0 := r.snapshot()
	r.runFor(def.calibNs)
	s1 := r.snapshot()
	if _, _, err := r.finish(); err != nil {
		return 0, err
	}
	bytes := s1[0].rdBytes + s1[0].wrBytes - s0[0].rdBytes - s0[0].wrBytes
	return float64(bytes) / 1e6 / (float64(def.calibNs) / 1e9), nil
}

// finish stops the workers, drains the loop and checks the rig.
func (r *simRig) finish() (attempted, failed int64, err error) {
	for _, w := range r.workers {
		w.Stop()
	}
	r.drain()
	return r.check()
}

// batchCost is the host cost of one window of one rig.
type batchCost struct {
	wallNs, cpuNs, ios int64
}

func (c batchCost) nsPerIO() float64 { return float64(c.wallNs) / float64(c.ios) }

// timeWindow advances the rig one window and returns its host cost.
func timeWindow(r *simRig, windowNs int64) batchCost {
	c0 := r.completed()
	cpu0, _ := cpuNs()
	t0 := time.Now()
	r.runFor(windowNs)
	wall := time.Since(t0).Nanoseconds()
	cpu1, _ := cpuNs()
	return batchCost{wallNs: wall, cpuNs: cpu1 - cpu0, ios: r.completed() - c0}
}

// batchStats is the timing of one rig over a phase's batches: per batch the
// wall and CPU nanoseconds per IO, raw and divided by the yardstick's
// slowdown next to the batch.
type batchStats struct {
	nsPerIO    []float64
	cpuNsPerIO []float64
	rawNsPerIO []float64
	wallNs     int64
	ios        int64
}

func (b *batchStats) add(c batchCost, slow float64) {
	raw := c.nsPerIO()
	b.rawNsPerIO = append(b.rawNsPerIO, raw)
	b.nsPerIO = append(b.nsPerIO, raw/slow)
	b.cpuNsPerIO = append(b.cpuNsPerIO, float64(c.cpuNs)/float64(c.ios)/slow)
	b.wallNs += c.wallNs
	b.ios += c.ios
}

// simPhase is the simulated-time outcome of the measured phase of a rig.
type simPhase struct {
	rdIOPS, aggMBps, futilMin          float64
	qd1Us, rdP99Us, wrP99Us            float64
	rdSamples, wrSamples, probeSamples uint64
}

// simOutcome derives the simulated-time metrics of rig r between two
// snapshots durNs apart.
func simOutcome(r *simRig, s0, s1 []tenantStats, durNs int64, standalone map[string]float64) simPhase {
	sec := float64(durNs) / 1e9
	var p simPhase
	var rd4k, bytes int64
	shareOf := 0
	for _, t := range r.tenants {
		if !t.probe {
			shareOf++
		}
	}
	p.futilMin = math.Inf(1)
	for i, t := range r.tenants {
		if t.probe {
			continue
		}
		b := s1[i].rdBytes + s1[i].wrBytes - s0[i].rdBytes - s0[i].wrBytes
		bytes += b
		if t.IOSize == 4096 {
			rd4k += s1[i].rdIOs - s0[i].rdIOs
		}
		if t.noFUtil {
			continue
		}
		if f := stats.FUtil(float64(b)/1e6/sec, standalone[t.Name], shareOf); f < p.futilMin {
			p.futilMin = f
		}
	}
	p.rdIOPS = float64(rd4k) / sec
	p.aggMBps = float64(bytes) / 1e6 / sec
	p.qd1Us = r.probe.quantile(0.5) / 1e3
	p.rdP99Us = r.rd.quantile(0.99) / 1e3
	p.wrP99Us = r.wr.quantile(0.99) / 1e3
	p.rdSamples, p.wrSamples, p.probeSamples = r.rd.total, r.wr.total, r.probe.total
	return p
}

// simRun is the state the end-to-end and the traced run share: the timed
// Gimbal/vanilla pair and everything measured on the way.
type simRun struct {
	g, v       *simRig // v is nil without a vanilla twin
	rigs       []*simRig
	gb, vb     batchStats
	mem0, mem1 runtime.MemStats // around the measured windows
	ratios     []float64
	phase      simPhase
	standalone map[string]float64
	calibS     float64
	warmS      float64
}

// runLoaded builds the Gimbal rig and its vanilla twin, measures the
// standalone maxima, warms both rigs and runs n measured window pairs,
// alternating the rigs batch by batch. One extra pair runs first and is
// discarded as warm-up. tr traces the Gimbal rig; y, when set, ticks before
// every measured pair.
func runLoaded(def *simDef, seed uint64, n int, tr *simTrace, twin bool, y *yardstick) (*simRun, error) {
	run := &simRun{standalone: map[string]float64{}}
	t0 := time.Now()
	for _, t := range def.tenants {
		if t.probe || t.noFUtil || !twin {
			continue
		}
		if _, ok := run.standalone[t.Name]; ok {
			continue
		}
		mbps, err := standaloneMax(def, t, seed)
		if err != nil {
			return nil, err
		}
		run.standalone[t.Name] = mbps
	}
	run.calibS = time.Since(t0).Seconds()

	run.rigs = []*simRig{buildSimRig(def, fabric.SchemeGimbal, def.tenants, seed, precondSeed(seed, 0), tr)}
	if twin {
		run.rigs = append(run.rigs, buildSimRig(def, fabric.SchemeVanilla, def.tenants, seed, precondSeed(seed, 0), nil))
		run.v = run.rigs[1]
	}
	run.g = run.rigs[0]
	t0 = time.Now()
	for i, r := range run.rigs {
		r.start(math.MaxInt64)
		r.runFor([]int64{def.warmNs, def.vanillaWarmNs}[i])
	}
	run.warmS = time.Since(t0).Seconds()

	runtime.GC()
	var s0 []tenantStats
	var start int64
	for i := 0; i <= n; i++ {
		if i == 1 {
			// The discarded pair is over: the measured phase starts here.
			s0, start = run.g.snapshot(), run.g.loop.Now()
			run.g.resetLatency()
			run.mem0 = readMem()
			if tr != nil {
				run.g.markTrace()
			}
		}
		slow := 1.0
		if i > 0 {
			slow = y.tick()
		}
		g := timeWindow(run.g, def.windowNs)
		var v batchCost
		if twin {
			v = timeWindow(run.v, def.vanillaWindowNs)
		}
		// A pair is kept whole or not at all, so batch k of one rig is always
		// the neighbour in time of batch k of the other.
		if i == 0 || g.ios == 0 || (twin && v.ios == 0) {
			continue
		}
		run.gb.add(g, slow)
		if twin {
			run.vb.add(v, slow)
			run.ratios = append(run.ratios, g.nsPerIO()/v.nsPerIO())
		}
	}
	run.mem1 = readMem()
	run.phase = simOutcome(run.g, s0, run.g.snapshot(), run.g.loop.Now()-start, run.standalone)
	return run, nil
}

// finish drains both rigs and folds their checks into res.
func (run *simRun) finish(res *result) error {
	for _, r := range run.rigs {
		a, f, err := r.finish()
		if err != nil {
			return err
		}
		res.attempted += a
		res.failed += f
	}
	return nil
}

// runSimEndToEnd is `-trace 0` on a simulator workload.
func runSimEndToEnd(def *simDef, seed uint64, seconds int) (*result, error) {
	res := newResult()
	y, err := newYardstick()
	if err != nil {
		return nil, err
	}
	defer y.close()
	res.metrics["setup_s"] = measureSetup(def, seed, def.setupReps, y)

	run, err := runLoaded(def, seed, windows(seconds, def.windowsPerSec), nil, true, y)
	if err != nil {
		return nil, err
	}
	if err := run.finish(res); err != nil {
		return nil, err
	}
	p := run.phase
	if supportedPercentile(p.rdSamples) < 0.99 || supportedPercentile(p.wrSamples) < 0.99 || p.probeSamples < 20 {
		return nil, fmt.Errorf("%s: too few samples for a p99 (%d reads, %d writes, %d probe reads)",
			def.name, p.rdSamples, p.wrSamples, p.probeSamples)
	}
	m := res.metrics
	m["host_ns_per_io"] = median(run.gb.nsPerIO)
	m["cpu_ns_per_io"] = median(run.gb.cpuNsPerIO)
	m["overhead_ratio"] = median(run.ratios)
	m["rd_iops"] = p.rdIOPS
	m["agg_MBps"] = p.aggMBps
	m["qd1_rd_lat_us"] = p.qd1Us
	m["rd_p99_us"] = p.rdP99Us
	m["wr_p99_us"] = p.wrP99Us
	m["futil_min"] = p.futilMin
	res.notes = append(res.notes,
		fmt.Sprintf("batches=%d x %.3gs simulated, samples rd=%d wr=%d probe=%d",
			len(run.gb.nsPerIO), float64(def.windowNs)/1e9, p.rdSamples, p.wrSamples, p.probeSamples),
		y.note(),
		fmt.Sprintf("gimbal rig batch ns/IO quartiles: raw %.1f (iqr %.1f%%, fast batch %.1f), against the yardstick %.1f (iqr %.1f%%)",
			quartiles(run.gb.rawNsPerIO), iqrPct(run.gb.rawNsPerIO), fastBatch(run.gb.rawNsPerIO), quartiles(run.gb.nsPerIO), iqrPct(run.gb.nsPerIO)),
		fmt.Sprintf("gimbal rig: %d IOs in %.2fs host; vanilla rig: %d IOs in %.2fs host, raw median %.1f ns/IO; calib %.2fs, warm-up %.2fs",
			run.gb.ios, float64(run.gb.wallNs)/1e9, run.vb.ios, float64(run.vb.wallNs)/1e9, median(run.vb.rawNsPerIO), run.calibS, run.warmS))
	return res, nil
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}
