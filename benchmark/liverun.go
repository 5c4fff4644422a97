package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"gimbal/internal/fabric"
	"gimbal/internal/stats"
)

// Batch sizes of the live phases: fixed work, sized to ≥ 0.2 s a batch on
// the reference box (2 CPUs shared by client and server).
const (
	liveP1PerConn   = 60_000 // 4 KB reads at QD32 on each of two connections
	liveP2PerConn   = 20_000 // 4 KB reads at QD1 on one connection
	liveP3PerConn   = 5_000  // 64 KB writes at QD4 on each of two connections
	liveSetupReps   = 50     // measured cold set-ups ...
	liveSetupSettle = 25     // ... after this many discarded ones: see measureLiveSetup
	liveBatchPerSec = 1.0
)

// liveRigs is how many rigs of each scheme a run cycles its batches over.
// A live rig's speed has two modes that last as long as the rig does: one
// rig in six or seven, Gimbal or vanilla alike, runs every batch a third
// slower than its siblings in the same process, with the same socket call
// counts, pacing stalls and rate-controller state (the per-rig buffers —
// slot pools, bufio and client buffers — land on different addresses each
// time, and the 4 KB payload copies are sensitive to that). Cycling over
// four rigs keeps one slow rig from being the whole run: the median batch
// then prices the usual mode, and slowBatchPct reports the other.
const liveRigs = 4

// liveRun holds the servers of a run: the Gimbal rigs under test and the
// vanilla rigs they are alternated with.
type liveRun struct {
	g, v []*liveRig
}

func startLiveRun(seed uint64, rigs int) (*liveRun, error) {
	lr := &liveRun{}
	for i := 0; i < rigs; i++ {
		g, err := buildLiveRig(fabric.SchemeGimbal, seed*uint64(2*rigs)+uint64(2*i))
		if err != nil {
			lr.finish(newResult())
			return nil, err
		}
		lr.g = append(lr.g, g)
		v, err := buildLiveRig(fabric.SchemeVanilla, seed*uint64(2*rigs)+uint64(2*i+1))
		if err != nil {
			lr.finish(newResult())
			return nil, err
		}
		lr.v = append(lr.v, v)
	}
	return lr, nil
}

// finish closes every rig and folds their accounts into res; shutdown is
// the first Gimbal rig's.
func (lr *liveRun) finish(res *result) (shutdown time.Duration, err error) {
	for i, r := range append(append([]*liveRig(nil), lr.g...), lr.v...) {
		a, f, aerr := r.account()
		d, cerr := r.close()
		if i == 0 {
			shutdown = d
		}
		if aerr != nil {
			err = aerr
		}
		if cerr != nil && err == nil {
			err = fmt.Errorf("live shutdown: %w", cerr)
		}
		res.attempted += a
		res.failed += f
	}
	return shutdown, err
}

// phase runs n measured batches of op, cycling over rigs; each rig first
// runs one discarded batch (on a Gimbal rig that is the rate controller's
// climb from 0.4 to 4 GB/s). y ticks before every measured batch.
func phase(rigs []*liveRig, op liveOp, qd, perConn, conns, n int, y *yardstick) ([]liveBatch, error) {
	runtime.GC()
	var out []liveBatch
	for i := -len(rigs); i < n; i++ {
		slow := 1.0
		if i >= 0 {
			slow = y.tick()
		}
		b, err := rigs[(i+len(rigs))%len(rigs)].batch(op, qd, perConn, conns)
		if err != nil {
			return nil, err
		}
		if i >= 0 {
			b.slow = slow
			out = append(out, b)
		}
	}
	return out, nil
}

func batchField(bs []liveBatch, f func(liveBatch) float64) []float64 {
	out := make([]float64, len(bs))
	for i, b := range bs {
		out[i] = f(b)
	}
	return out
}

// Per-batch figures batchField extracts: wall-clock costs divided, and rates
// multiplied, by the yardstick's slowdown next to the batch (1 where no
// yardstick ran: the traced passes and the comparison batches of P1).
func iops(b liveBatch) float64    { return float64(b.ios) / (float64(b.wallNs) / 1e9) * b.slow }
func nsPerIO(b liveBatch) float64 { return float64(b.wallNs) / float64(b.ios) / b.slow }
func p50Us(b liveBatch) float64   { return b.p50 / b.slow }
func p99Us(b liveBatch) float64   { return b.p99 / b.slow }

// liveP1 is the loaded read phase: each round runs one batch on the Gimbal
// rig, one on the vanilla rig (the yardstick of overhead_ratio), and one
// single-connection batch on the vanilla rig (the standalone maximum of
// f-Util), so each ratio compares neighbours in time.
type liveP1 struct {
	g, solo    []liveBatch
	cpuNsPerIO []float64 // process CPU of each Gimbal batch: client and server
	ratios     []float64
	futil      []float64
}

func (lr *liveRun) runP1(n int, y *yardstick) (*liveP1, error) {
	runtime.GC()
	p := &liveP1{}
	k := len(lr.g)
	for i := -k; i < n; i++ {
		gr, vr := lr.g[(i+k)%k], lr.v[(i+k)%k]
		slow := 1.0
		if i >= 0 {
			slow = y.tick()
		}
		cpu0, _ := cpuNs()
		g, err := gr.batch(liveRead4K, 32, liveP1PerConn, liveConns)
		if err != nil {
			return nil, err
		}
		cpu1, _ := cpuNs()
		v, err := vr.batch(liveRead4K, 32, liveP1PerConn, liveConns)
		if err != nil {
			return nil, err
		}
		solo, err := vr.batch(liveRead4K, 32, liveP1PerConn, 1)
		if err != nil {
			return nil, err
		}
		if i < 0 {
			continue // each rig's first round is warm-up
		}
		// The ratios compare neighbours in time, so they are taken raw; only
		// the Gimbal batch's absolute figures go against the yardstick.
		p.ratios = append(p.ratios, nsPerIO(g)/nsPerIO(v))
		p.futil = append(p.futil, liveFUtil(g, liveP1PerConn, iops(solo)))
		g.slow = slow
		p.g, p.solo = append(p.g, g), append(p.solo, solo)
		p.cpuNsPerIO = append(p.cpuNsPerIO, float64(cpu1-cpu0)/float64(g.ios)/slow)
	}
	return p, nil
}

// liveFUtil is the §5.1 fair utilisation of the worse-off connection in a
// batch: its IOPS over half the standalone IOPS of one connection alone.
func liveFUtil(b liveBatch, perConn int, standaloneIOPS float64) float64 {
	worst := math.Inf(1)
	for _, ns := range b.connNs {
		f := stats.FUtil(float64(perConn)/(float64(ns)/1e9), standaloneIOPS, len(b.connNs))
		worst = math.Min(worst, f)
	}
	return worst
}

// measureLiveSetup times cold live rigs (listen, dial, first round trip,
// graceful shutdown) and returns the median of reps of them, each divided by
// the yardstick's slowdown (one tick per five rigs). A rig allocates ≈ 12 MB
// and most of a 2 ms set-up is page faults on it, so what a rep costs depends
// on how much freed memory the Go heap still holds: after the measured
// phases' rigs are released that takes some 25 set-ups to settle (3–4 ms
// falling to 1.6–1.9 ms), and a median over the transient read 2.0 or 3.0 ms
// from run to run. The first settle reps are therefore discarded.
func measureLiveSetup(seed uint64, reps, settle int, y *yardstick) (float64, error) {
	var secs []float64
	slow := 1.0
	for i := 0; i < settle+reps; i++ {
		if i >= settle && (i-settle)%5 == 0 {
			slow = y.tick()
		}
		runtime.GC()
		t0 := time.Now()
		r, err := buildLiveRig(fabric.SchemeGimbal, seed+uint64(i))
		if err != nil {
			return 0, err
		}
		if _, err := r.close(); err != nil {
			return 0, fmt.Errorf("live shutdown: %w", err)
		}
		if i >= settle {
			secs = append(secs, time.Since(t0).Seconds()/slow)
		}
	}
	return median(secs), nil
}

// liveGatedProcs is the GOMAXPROCS of every gated live phase. With two Ps
// the seven goroutines of the datapath (two clients, two readers, the
// reactor, two writers) hand each IO across vCPUs four times, and on the
// 2-vCPU reference VM the wall-clock tails of that do not repeat: over ten
// runs the median batch's write p99 spread 28–56% and its read p99 ranged
// over 240%, against 11–15% and 25% on one P (throughput: 17% against 11%
// raw). The contract gates every end-to-end metric on every workload, so the
// gated phases run where they can be measured; the traced run's P5 repeats
// the loaded phase on two Ps and reports it per layer (live.p2_*).
const liveGatedProcs = 1

// runLiveEndToEnd is `-trace 0` on live-null-mixed.
func runLiveEndToEnd(seed uint64, seconds int) (*result, error) {
	runtime.GOMAXPROCS(liveGatedProcs)
	res := newResult()
	n := windows(seconds, liveBatchPerSec)
	y, err := newYardstick()
	if err != nil {
		return nil, err
	}
	defer y.close()
	lr, err := startLiveRun(seed, liveRigs)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*result, error) {
		lr.finish(res)
		return nil, err
	}

	p1, err := lr.runP1(n, y)
	if err != nil {
		return fail(err)
	}
	p2, err := phase(lr.g, liveRead4K, 1, liveP2PerConn, 1, n, y)
	if err != nil {
		return fail(err)
	}
	p3, err := phase(lr.g, liveWrite64K, 4, liveP3PerConn, liveConns, n, y)
	if err != nil {
		return fail(err)
	}
	if _, err := lr.finish(res); err != nil {
		return nil, err
	}
	// Cold set-ups last: each leaves two switches' 10 ms cost ticks armed on
	// runtime timers, which must not tick through the measured phases.
	setup, err := measureLiveSetup(seed, liveSetupReps, liveSetupSettle, y)
	if err != nil {
		return nil, err
	}

	m := res.metrics
	m["setup_s"] = setup
	m["host_ns_per_io"] = median(batchField(p1.g, nsPerIO))
	m["cpu_ns_per_io"] = median(p1.cpuNsPerIO)
	m["overhead_ratio"] = median(p1.ratios)
	m["rd_iops"] = median(batchField(p1.g, iops))
	m["agg_MBps"] = median(batchField(p3, func(b liveBatch) float64 { return iops(b) * float64(liveWrite64K.size) / 1e6 }))
	m["qd1_rd_lat_us"] = median(batchField(p2, p50Us))
	m["rd_p99_us"] = median(batchField(p1.g, p99Us))
	m["wr_p99_us"] = median(batchField(p3, p99Us))
	m["futil_min"] = median(p1.futil)
	raw := func(b liveBatch) float64 { return float64(b.ios) / float64(b.wallNs) * 1e6 }
	res.notes = append(res.notes,
		fmt.Sprintf("P1 raw batch kIOPS over %d Gimbal rigs in turn: %.0f", liveRigs, batchField(p1.g, raw)),
		fmt.Sprintf("P1 against the yardstick: batch kIOPS quartiles %.0f, iqr %.2f%% (raw iqr %.2f%%), %.0f%% of batches over 20%% slower than the median",
			quartiles(batchField(p1.g, func(b liveBatch) float64 { return iops(b) / 1e3 })), iqrPct(batchField(p1.g, iops)), iqrPct(batchField(p1.g, raw)), slowBatchPct(p1.g)),
		y.note(),
		fmt.Sprintf("transport: loopback TCP inside one process (a socket pair, not a link); GOMAXPROCS=%d", liveGatedProcs),
		fmt.Sprintf("batches=%d per phase; P1 %d x 4KB rd QD32 x 2 conns; P2 %d x 4KB rd QD1; P3 %d x 64KB wr QD4 x 2 conns; standalone %.0f IOPS raw",
			n, liveP1PerConn, liveP2PerConn, liveP3PerConn, median(batchField(p1.solo, iops))))
	return res, nil
}

// slowBatchPct is the share of batches that took over 20% longer per IO than
// the median batch, raw. A live rig's speed has modes that last for seconds
// or for the life of the rig (see liveRigs); the median prices the usual one,
// and this says how often the others showed.
func slowBatchPct(bs []liveBatch) float64 {
	raw := batchField(bs, func(b liveBatch) float64 { return float64(b.wallNs) / float64(b.ios) })
	med := median(raw)
	slow := 0
	for _, v := range raw {
		if v > 1.2*med {
			slow++
		}
	}
	return float64(slow) / float64(len(raw)) * 100
}
