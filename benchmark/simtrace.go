package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"gimbal/internal/baseline/vanilla"
	"gimbal/internal/core"
	"gimbal/internal/fabric"
	"gimbal/internal/nvme"
	"gimbal/internal/obs"
	"gimbal/internal/sim"
	"gimbal/internal/ssd"
	"gimbal/internal/workload"
)

// traceWindows is the batch count of the traced run's two passes: the
// untraced reference and the traced one. Per-layer numbers are reported,
// not gated, so they rest on fewer batches than the end-to-end medians.
func traceWindows(seconds int, perSec float64) int {
	n := int(math.Round(float64(seconds) * perSec * 0.4))
	if n < 6 {
		n = 6
	}
	return n
}

// markTrace starts the traced measurement: span aggregates, residency
// sinks and event counts restart; raw spans keep accumulating.
func (r *simRig) markTrace() {
	r.tr.rec.reset()
	r.tr.wait.reset()
	r.tr.ret.reset()
	for _, s := range r.scheds {
		if s != nil {
			s.events = 0
		}
	}
	for _, d := range []*devSeam{r.seamOut, r.seamMid, r.seamDev} {
		if d != nil {
			d.rd.reset()
			d.wr.reset()
			d.fastHit.reset()
		}
	}
}

// runSimTraced is `-trace 1` on a simulator workload: an untraced reference
// pass (runtime and control-loop figures, and the base of
// trace.overhead_pct), the traced pass with the benchmark's wrappers at
// every public seam, and on sim-null-4k the ladder of direct rigs.
func runSimTraced(def *simDef, seed uint64, seconds int) (*result, error) {
	res := newResult()
	m := res.metrics
	n := traceWindows(seconds, def.windowsPerSec)

	if !def.nullDev {
		cold, restore := precondTimes(def, seed)
		m["ssd.precondition_s"] = cold
		m["ssd.snapshot_restore_ms"] = restore * 1e3
	}

	// The per-layer host times below are raw, not divided by the yardstick:
	// they are read as shares of one pass, and rt.yard_slowdown says how slow
	// the box was while the reference pass ran.
	y, err := newYardstick()
	if err != nil {
		return nil, err
	}
	defer y.close()
	ref, err := runLoaded(def, seed, n, nil, true, y)
	if err != nil {
		return nil, err
	}
	refNs := fastBatch(ref.gb.rawNsPerIO)
	m["rt.fast_batch_ns_per_io"] = refNs
	m["rt.yard_slowdown"] = median(y.ticks)
	m["bench.calib_s"] = ref.calibS
	m["bench.warmup_s"] = ref.warmS
	ios := float64(ref.gb.ios)
	m["rt.allocs_per_io"] = float64(ref.mem1.Mallocs-ref.mem0.Mallocs) / ios
	m["rt.alloc_bytes_per_io"] = float64(ref.mem1.TotalAlloc-ref.mem0.TotalAlloc) / ios
	m["rt.gc_cycles"] = float64(ref.mem1.NumGC - ref.mem0.NumGC)
	m["rt.gc_pause_ms"] = float64(ref.mem1.PauseTotalNs-ref.mem0.PauseTotalNs) / 1e6
	m["rt.heap_sys_MB"] = float64(ref.mem1.HeapSys) / 1e6
	m["rt.batch_iqr_pct"] = iqrPct(ref.gb.rawNsPerIO)
	controlLoopMetrics(ref.g.hub.Reg.Snapshot(), ref.g.target.Pipeline(0).Gimbal, m)
	deviceCounters(ref.g, m)
	if err := ref.finish(res); err != nil {
		return nil, err
	}
	ref = nil
	runtime.GC()

	tr := newSimTrace()
	run, err := runLoaded(def, seed, n, tr, false, nil)
	if err != nil {
		return nil, err
	}
	g := run.g
	ios = float64(run.gb.ios)
	rec := tr.rec
	// Raw self times sum to the traced pass exactly (checked below); the
	// reported ones are net of the recorder's own calibrated cost, which
	// otherwise lands on whichever layer has the most span boundaries.
	in, out := spanCost()
	var sum float64
	for l := layer(0); l < numLayers; l++ {
		m[l.String()+".self_ns_per_io"] = rec.netSelfNs(l, in, out) / ios
		sum += float64(rec.selfNs[l]) / ios
	}
	tracedNs := float64(run.gb.wallNs) / ios
	m["trace.host_ns_per_io"] = tracedNs
	m["trace.overhead_pct"] = (fastBatch(run.gb.rawNsPerIO)/refNs - 1) * 100
	var events int64
	for _, s := range g.scheds {
		if s != nil {
			events += s.events
		}
	}
	m["sim.events_per_io"] = float64(events) / ios
	m["fabric.events_per_io"] = float64(g.scheds[layerTarget].events) / ios
	if s := g.scheds[layerSSD]; s != nil {
		m["ssd.events_per_io"] = float64(s.events) / ios
	}
	m["target.sim_wait_us_p50"] = tr.wait.us(0.5)
	m["target.sim_wait_us_p99"] = tr.wait.us(0.99)
	m["target.sim_return_us_p50"] = tr.ret.us(0.5)
	all := newFineHist()
	all.merge(g.seamOut.rd)
	all.merge(g.seamOut.wr)
	m["dev.sim_us_p50"] = all.us(0.5)
	m["dev.sim_us_p99"] = all.us(0.99)
	m["tier.sim_hit_us_p99"] = g.seamOut.fastHit.us(0.99)
	if g.nand != nil {
		m["ssd.sim_rd_us_p99"] = g.seamDev.rd.us(0.99)
		m["ssd.sim_wr_us_p99"] = g.seamDev.wr.us(0.99)
	}
	if err := run.finish(res); err != nil {
		return nil, err
	}
	if gap := math.Abs(sum-tracedNs) / tracedNs; gap > 0.02 {
		return nil, fmt.Errorf("%s: layer self times sum to %.1f ns/IO, traced pass took %.1f (%.1f%% apart)",
			def.name, sum, tracedNs, gap*100)
	}

	idle, err := idleQD1(def, seed)
	if err != nil {
		return nil, err
	}
	m["qd1.idle_sim_us"] = idle

	if def.nullDev {
		if err := ladder(seed, m); err != nil {
			return nil, err
		}
	}
	path, err := writeTrace(def.name, seed, rec, m)
	if err != nil {
		return nil, err
	}
	var shares []string
	var net float64
	for l := layer(0); l < numLayers; l++ {
		net += m[l.String()+".self_ns_per_io"]
	}
	for l := layer(0); l < numLayers; l++ {
		if v := m[l.String()+".self_ns_per_io"]; v > 0 {
			shares = append(shares, fmt.Sprintf("%s %.1f%%", l, v/net*100))
		}
	}
	res.notes = append(res.notes,
		fmt.Sprintf("reference pass %d batches at %.1f ns/IO, traced pass %d batches at %.1f ns/IO", n, refNs, n, tracedNs),
		fmt.Sprintf("recorder cost: %.0f ns inside a span, %.0f ns to its parent; net layer self times sum to %.1f ns/IO", in, out, net),
		"net host time by layer: "+strings.Join(shares, ", "),
		"spans written to "+path)
	return res, nil
}

// precondTimes returns the seconds a cold pre-conditioning pass of the
// workload's device takes, and the seconds the same pass takes again once
// the FTL snapshot cache holds it.
func precondTimes(def *simDef, seed uint64) (cold, restore float64) {
	p := ssd.DCT983()
	p.UsableBytes = def.capacity
	pass := func() float64 {
		t0 := time.Now()
		d := ssd.New(sim.NewLoop(), p)
		if tp := def.tierParams(); tp != nil {
			d.SetSnapshotTag(tp.SnapshotTag())
		}
		d.Precondition(def.cond, sim.NewRNG(precondSeed(seed, 0)))
		return time.Since(t0).Seconds()
	}
	return pass(), pass()
}

// controlLoopMetrics reads Gimbal's control loops from a registry snapshot
// and the accessors of pipeline 0's Switch (in the pipeline's own time:
// simulated on sim-*, wall on the live plane).
func controlLoopMetrics(snap map[string]float64, sw *core.Switch, m map[string]float64) {
	q := func(name string) float64 { return snap[name+`{ssd="0",quantile="0.99"}`] / 1e3 }
	m["core.queue_delay_us_p99"] = q("gimbal_queue_delay_ns")
	m["core.vslot_wait_us_p99"] = q("gimbal_vslot_wait_ns")
	m["core.pacing_stall_us_p99"] = q("gimbal_pacing_stall_ns")
	if done := obs.SumMetric(snap, "gimbal_completions_total"); done > 0 {
		m["core.pacing_stalls_per_kio"] = obs.SumMetric(snap, "gimbal_pacing_stalls_total") / done * 1e3
	}
	m["core.congestion_transitions"] = obs.SumMetric(snap, "gimbal_congestion_transitions_total")
	m["core.cost_changes"] = obs.SumMetric(snap, "gimbal_cost_changes_total")
	m["core.write_cost_end"] = sw.WriteCost()
	m["core.target_rate_MBps_end"] = sw.Rate().TargetRate() / 1e6
}

// deviceCounters reads the tier's and the NAND model's own counters.
func deviceCounters(r *simRig, m map[string]float64) {
	pct := func(a, b int64) float64 {
		if a+b == 0 {
			return 0
		}
		return float64(a) / float64(a+b) * 100
	}
	if r.tier != nil {
		s := r.tier.Stats()
		page := int64(r.tier.Params().PageSize)
		m["tier.hit_pct"] = pct(s.Hits, s.Misses)
		m["tier.promotions"] = float64(s.Promotions)
		m["tier.evictions"] = float64(s.Evictions)
		m["tier.writeback_pct"] = pct(s.WriteBacks, s.WriteArounds)
		m["tier.absorbed_pct"] = pct(s.Absorbed, s.WriteBacks-s.Absorbed)
		m["tier.destage_MB"] = float64(s.DestageBytes) / 1e6
		m["tier.dirty_pages_end"] = float64(s.Dirty)
		// Every write-back here is one 4 KB page. Pages written back should
		// equal pages destaged + still dirty + absorbed by an overwrite;
		// ROADMAP item 3 owns explaining any gap, so it is reported only.
		m["tier.conservation_gap_pages"] = float64(s.WriteBacks - s.DestageBytes/page - int64(s.Dirty) - s.Absorbed)
	}
	if r.nand != nil {
		s := r.nand.Stats()
		m["ssd.write_amp"] = s.WriteAmp
		m["ssd.erases"] = float64(s.Erases)
		m["ssd.free_blocks_end"] = float64(s.FreeBlocks)
		if s.WriteOps > 0 {
			m["ssd.gc_moved_pages_per_kwrite"] = float64(s.GCMovedPages) / float64(s.WriteOps) * 1e3
		}
	}
}

// idleQD1 returns the median simulated latency (µs) of 4 KB reads from one
// tenant at QD1 on an otherwise idle rig of the workload: the unloaded path
// length, a constant of the model for a given device stack.
func idleQD1(def *simDef, seed uint64) (float64, error) {
	var probe tenantDef
	for _, t := range def.tenants {
		if t.probe {
			probe = t
		}
	}
	r := buildSimRig(def, fabric.SchemeGimbal, []tenantDef{probe}, seed, precondSeed(seed, 0), nil)
	r.start(math.MaxInt64)
	for r.probe.total < 2000 {
		r.runFor(10 * sim.Millisecond)
	}
	us := r.probe.quantile(0.5) / 1e3
	_, _, err := r.finish()
	return us, err
}

// traceFile is benchmark/out/trace-<workload>.json.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Note     string             `json:"note"`
	Layers   []traceLayer       `json:"layers"`
	RootNs   int64              `json:"root_ns"`
	Metrics  map[string]float64 `json:"metrics"`
	Spans    []rawSpan          `json:"spans"`
}

type traceLayer struct {
	Name   string `json:"name"`
	SelfNs int64  `json:"self_ns"`
	Spans  int64  `json:"spans"`
}

// writeTrace writes the span aggregate and the first raw spans under out/.
func writeTrace(workloadName string, seed uint64, rec *recorder, metrics map[string]float64) (string, error) {
	tf := traceFile{Workload: workloadName, Seed: seed, RootNs: rec.rootNs, Metrics: metrics, Spans: rec.raw,
		Note: "host nanoseconds since the recorder's epoch; self_ns and root_ns cover the measured batches, spans are the first recorded (warm-up included)"}
	for l := layer(0); l < numLayers; l++ {
		tf.Layers = append(tf.Layers, traceLayer{l.String(), rec.selfNs[l], rec.spans[l]})
	}
	return writeOut("trace-"+workloadName+".json", tf)
}

// writeOut marshals v into out/<name> next to the program's sources.
func writeOut(name string, v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("encode %s: %w", name, err)
	}
	if err := os.MkdirAll("out", 0o755); err != nil {
		return "", err
	}
	path := filepath.Join("out", name)
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// Ladder: the tab1a method generalised (ROADMAP 1b). fabric and core sit
// behind one seam, so they are priced by stacking one layer at a time over
// the NULL device and timing each rung with 16 tenants x QD32 4 KB reads.

const (
	ladderTenants = 16
	ladderQD      = 32
	ladderOps     = 200_000
	ladderBatches = 5
)

// ladderBatchNs runs one rung's batches (one discarded first) and returns
// the fast batch of ns per operation.
func ladderBatchNs(batch func() (ns, ops int64)) float64 {
	runtime.GC()
	var xs []float64
	for i := 0; i <= ladderBatches; i++ {
		ns, ops := batch()
		if i > 0 && ops > 0 {
			xs = append(xs, float64(ns)/float64(ops))
		}
	}
	return fastBatch(xs)
}

// ladderSched drives a scheduler directly: tenants x qd reads outstanding,
// each completion submits the next, ops per batch.
func ladderSched(mk func(*sim.Loop, ssd.Device) nvme.Scheduler, tenants, qd int, seed uint64) float64 {
	loop := sim.NewLoop()
	sched := mk(loop, ssd.NewNull(loop, 8<<30, 100))
	rng := sim.NewRNG(seed)
	ts := make([]*nvme.Tenant, tenants)
	for i := range ts {
		ts[i] = nvme.NewTenant(i, fmt.Sprintf("t%d", i))
		sched.Register(ts[i])
	}
	remaining, done := 0, int64(0)
	var onDone func(*nvme.IO, nvme.Completion)
	submit := func(io *nvme.IO) {
		remaining--
		t := io.Tenant
		*io = nvme.IO{Op: nvme.OpRead, Offset: rng.Int63n(1<<20) * 4096, Size: 4096, Tenant: t, Done: onDone}
		sched.Enqueue(io)
	}
	onDone = func(io *nvme.IO, _ nvme.Completion) {
		done++
		if remaining > 0 {
			submit(io)
		}
	}
	ios := make([]*nvme.IO, 0, tenants*qd)
	for _, t := range ts {
		for i := 0; i < qd; i++ {
			ios = append(ios, &nvme.IO{Tenant: t})
		}
	}
	return ladderBatchNs(func() (int64, int64) {
		remaining, done = ladderOps, 0
		t0 := time.Now()
		for _, io := range ios {
			submit(io)
		}
		loop.Run()
		return time.Since(t0).Nanoseconds(), done
	})
}

// directRig puts workload.Workers straight onto a scheduler: no session,
// no target.
func directRig(def *simDef, seed uint64, mk func(*sim.Loop) nvme.Scheduler) *simRig {
	r := &simRig{def: def, loop: sim.NewLoop(), rd: newFineHist(), wr: newFineHist(), probe: newFineHist()}
	sched := mk(r.loop)
	rng := sim.NewRNG(seed)
	for i, t := range def.tenants {
		p := t.Profile
		p.Span = 8 << 30
		st := &tenantStats{}
		r.stats = append(r.stats, st)
		tenant := nvme.NewTenant(i, t.Name)
		sched.Register(tenant)
		cs := &clientSeam{inner: workload.SchedTarget{S: sched}, loop: r.loop, st: st, rd: r.rd, wr: r.wr}
		r.workers = append(r.workers, workload.NewWorker(r.loop, rng.Fork(), p, tenant, cs))
	}
	return r
}

// ladderRigs times rigs that run workers, by simulated windows, alternating
// the rigs window by window so that neighbouring rungs see the same
// machine. It returns the fast batch of ns per IO of each.
func ladderRigs(rigs []*simRig) ([]float64, error) {
	for _, r := range rigs {
		r.start(math.MaxInt64)
		r.runFor(r.def.warmNs)
	}
	runtime.GC()
	xs := make([][]float64, len(rigs))
	for i := 0; i <= ladderBatches; i++ {
		for k, r := range rigs {
			c0 := r.completed()
			t0 := time.Now()
			r.runFor(r.def.windowNs)
			ns := time.Since(t0).Nanoseconds()
			if n := r.completed() - c0; i > 0 && n > 0 {
				xs[k] = append(xs[k], float64(ns)/float64(n))
			}
		}
	}
	out := make([]float64, len(rigs))
	for k, r := range rigs {
		out[k] = fastBatch(xs[k])
		if _, _, err := r.finish(); err != nil {
			return nil, fmt.Errorf("ladder rung %d: %w", k, err)
		}
	}
	return out, nil
}

func ladder(seed uint64, m map[string]float64) error {
	// Rung 0: one bare loop event (schedule + dispatch of a no-op timer).
	loop := sim.NewLoop()
	m["sim.ladder_ns_per_event"] = ladderBatchNs(func() (int64, int64) {
		left := ladderOps
		var tick func()
		tick = func() {
			if left--; left > 0 {
				loop.After(100, tick)
			}
		}
		t0 := time.Now()
		for i := 0; i < ladderTenants*ladderQD; i++ {
			loop.After(100, tick)
		}
		loop.Run()
		return time.Since(t0).Nanoseconds(), ladderOps
	})
	// Rung 1: the NULL device alone.
	dev := ssd.NewNull(loop, 8<<30, 100)
	m["nulldev.ladder_ns_per_io"] = ladderBatchNs(func() (int64, int64) {
		left, done := ladderOps, int64(0)
		var onDone func(*ssd.Request)
		onDone = func(r *ssd.Request) {
			done++
			if left--; left > 0 {
				dev.Submit(r)
			}
		}
		reqs := make([]ssd.Request, ladderTenants*ladderQD)
		t0 := time.Now()
		for i := range reqs {
			reqs[i] = ssd.Request{Kind: ssd.OpRead, Size: 4096, Done: onDone}
			dev.Submit(&reqs[i])
		}
		loop.Run()
		return time.Since(t0).Nanoseconds(), done
	})
	// Rungs 2 and 3: a scheduler over it, driven directly.
	mkVanilla := func(l *sim.Loop, d ssd.Device) nvme.Scheduler { return vanilla.New(l, d) }
	mkCore := func(l *sim.Loop, d ssd.Device) nvme.Scheduler { return core.New(l, d, core.DefaultConfig()) }
	m["vanilla.ladder_ns_per_io"] = ladderSched(mkVanilla, ladderTenants, ladderQD, seed)
	m["core.ladder_ns_per_io"] = ladderSched(mkCore, ladderTenants, ladderQD, seed)
	m["core.ladder_qd1_ns_per_io"] = ladderSched(mkCore, 1, 1, seed)

	// Rungs 4 to 7: workload.Worker on top, then the full fabric target,
	// then the registry hub, then the sampled tracer.
	def := &simDef{name: "ladder", nullDev: true, obs: obsNone,
		tenants: repeatTenant(tenantDef{Profile: prof("rd4k", 1, 4096, ladderQD)}, ladderTenants),
		warmNs:  400 * sim.Millisecond, windowNs: 200 * sim.Millisecond}
	withReg, withTracer := *def, *def
	withReg.obs, withTracer.obs = obsRegistry, obsSampledTracer
	ns, err := ladderRigs([]*simRig{
		directRig(def, seed, func(l *sim.Loop) nvme.Scheduler { return mkCore(l, ssd.NewNull(l, 8<<30, 100)) }),
		buildSimRig(def, fabric.SchemeGimbal, def.tenants, seed, 0, nil),
		buildSimRig(&withReg, fabric.SchemeGimbal, def.tenants, seed, 0, nil),
		buildSimRig(&withTracer, fabric.SchemeGimbal, def.tenants, seed, 0, nil),
	})
	if err != nil {
		return err
	}
	m["workload.ladder_ns_per_io"] = ns[0]
	m["fabric.ladder_ns_per_io"] = ns[1]
	m["obs.registry_ns_per_io"] = ns[2] - ns[1]
	m["obs.sampled_tracer_ns_per_io"] = ns[3] - ns[2]
	return nil
}
