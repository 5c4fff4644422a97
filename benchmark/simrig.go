package main

import (
	"fmt"

	"gimbal/internal/fabric"
	"gimbal/internal/fault"
	"gimbal/internal/nvme"
	"gimbal/internal/obs"
	"gimbal/internal/sim"
	"gimbal/internal/ssd"
	"gimbal/internal/tier"
	"gimbal/internal/workload"
)

// tenantDef is one tenant of a simulator workload.
type tenantDef struct {
	workload.Profile
	// probe marks the QD1 latency probe: it shares the SSD with the loaded
	// tenants and is left out of throughput, tail and f-Util figures.
	probe bool
	// noFUtil leaves a tenant out of f-Util (rate-limited writers: their
	// bandwidth is their offered load, not their share).
	noFUtil bool
}

// simDef describes one simulator-plane workload.
type simDef struct {
	name     string
	nullDev  bool          // ssd.Null(8 GiB, 100 ns) instead of NAND
	capacity int64         // NAND usable bytes
	cond     ssd.Condition // NAND precondition
	tierFrac float64       // fast tier as a fraction of capacity (0 = none)
	tenants  []tenantDef

	warmNs   int64 // simulated warm-up before the first window (vanillaWarmNs for the twin)
	windowNs int64 // simulated length of one batch of the Gimbal rig
	// vanillaWindowNs is the batch length of the interleaved vanilla rig.
	// Equal to windowNs on NAND; on the NULL device, where Gimbal paces at
	// its 4 GB/s rate ceiling and vanilla does not, it is sized to the same
	// number of IOs instead.
	vanillaWindowNs int64
	vanillaWarmNs   int64
	// calibWarmNs and calibNs are the warm-up and measured length of a
	// standalone-maximum run (f-Util's denominator).
	calibWarmNs, calibNs int64
	// windowsPerSec scales the batch count with -seconds (one window is
	// about 0.2 s of host time for each rig on the reference box).
	windowsPerSec float64
	setupReps     int

	// obs selects the telemetry attached to the target; the zero value is
	// production's (registry hub, tracer and SLO engine off). The ladder
	// uses the others to price the hub and the sampled tracer.
	obs obsMode
}

type obsMode int

const (
	obsRegistry obsMode = iota
	obsNone
	obsSampledTracer
)

func prof(name string, read float64, size, qd int) workload.Profile {
	return workload.Profile{Name: name, ReadRatio: read, IOSize: size, QD: qd}
}

func repeatTenant(t tenantDef, n int) []tenantDef {
	out := make([]tenantDef, n)
	for i := range out {
		out[i] = t
	}
	return out
}

func concat(parts ...[]tenantDef) []tenantDef {
	var out []tenantDef
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

const nandCapacity = 4 << 30

var simDefs = map[string]*simDef{
	"sim-null-4k": {
		name:    "sim-null-4k",
		nullDev: true,
		// 90/10 rather than pure reads: the seed picks each IO's opcode, so
		// it reaches the simulated results. On a pure-read NULL rig every
		// simulated number is a constant of the model whatever the seed.
		tenants: concat(
			repeatTenant(tenantDef{Profile: prof("mix4k", 0.9, 4096, 32)}, 16),
			[]tenantDef{{Profile: prof("probe4k", 1, 4096, 1), probe: true}},
		),
		warmNs:          400 * sim.Millisecond, // rate ramp 0.4 → 4 GB/s takes ~0.3 s
		windowNs:        400 * sim.Millisecond, // ≈ 390k IOs
		vanillaWindowNs: 8 * sim.Millisecond,   // ≈ 390k IOs: unpaced, vanilla runs the NULL device at 49M IOPS
		vanillaWarmNs:   1 * sim.Millisecond,
		calibWarmNs:     5 * sim.Millisecond,
		calibNs:         30 * sim.Millisecond,
		windowsPerSec:   2,
		setupReps:       101,
	},
	"sim-frag-mixed": {
		name:     "sim-frag-mixed",
		capacity: nandCapacity,
		cond:     ssd.Fragmented,
		tenants: concat(
			repeatTenant(tenantDef{Profile: prof("rd4k", 1, 4096, 32)}, 4),
			repeatTenant(tenantDef{Profile: prof("rd128k", 1, 128<<10, 4)}, 2),
			repeatTenant(tenantDef{Profile: prof("wr4k", 0, 4096, 32)}, 4),
			repeatTenant(tenantDef{Profile: workload.Profile{Name: "wr128k", IOSize: 128 << 10, QD: 4, Seq: true}}, 2),
			[]tenantDef{{Profile: prof("probe4k", 1, 4096, 1), probe: true}},
		),
		warmNs:          500 * sim.Millisecond,
		windowNs:        2 * sim.Second,
		vanillaWindowNs: 700 * sim.Millisecond, // unpaced, vanilla completes ~3x the IOs per simulated second
		vanillaWarmNs:   500 * sim.Millisecond,
		calibWarmNs:     300 * sim.Millisecond,
		calibNs:         700 * sim.Millisecond,
		windowsPerSec:   1.8,
		setupReps:       8,
	},
	"sim-tier-hot": {
		name:     "sim-tier-hot",
		capacity: nandCapacity,
		cond:     ssd.Fragmented,
		tierFrac: 0.05,
		tenants: concat(
			repeatTenant(tenantDef{Profile: workload.Profile{Name: "zrd4k", ReadRatio: 1, IOSize: 4096, QD: 32, Zipf: 0.99}}, 3),
			repeatTenant(tenantDef{Profile: workload.Profile{Name: "zwr4k", IOSize: 4096, QD: 8, Zipf: 0.99, RateLimitBps: 48e6}, noFUtil: true}, 2),
			[]tenantDef{{Profile: workload.Profile{Name: "zprobe4k", ReadRatio: 1, IOSize: 4096, QD: 1, Zipf: 0.99}, probe: true}},
		),
		warmNs:          1 * sim.Second,
		windowNs:        250 * sim.Millisecond,
		vanillaWindowNs: 250 * sim.Millisecond,
		vanillaWarmNs:   1 * sim.Second,
		calibWarmNs:     1 * sim.Second, // fill the tier as the loaded run does
		calibNs:         700 * sim.Millisecond,
		windowsPerSec:   1.6,
		setupReps:       8,
	},
}

// tierParams returns the fast-tier parameters of a workload (PR 10's
// tier-sweep point: default Optane-class tier, 10 ms destage linger).
func (d *simDef) tierParams() *tier.Params {
	if d.tierFrac == 0 {
		return nil
	}
	tp := tier.DefaultParams(int64(d.tierFrac * float64(d.capacity)))
	tp.DestageDelay = 10 * sim.Millisecond
	return &tp
}

// simRig is one assembled simulator stack with its clients.
type simRig struct {
	def    *simDef
	loop   *sim.Loop
	target *fabric.Target
	hub    *obs.Hub     // nil with obsNone
	nand   *ssd.SSD     // nil on the NULL device
	tier   *tier.Device // nil without a fast tier

	tenants []tenantDef
	workers []*workload.Worker
	stats   []*tenantStats
	// Latency sinks: loaded tenants share rd/wr, the probe has its own.
	rd, wr, probe *fineHist

	// Traced pass only.
	tr      *simTrace
	scheds  [numLayers]*tagSched
	seamOut *devSeam // switch → device stack
	seamMid *devSeam // tier → fault wrapper (nil without a tier)
	seamDev *devSeam // fault wrapper → NAND or NULL
}

// buildSimRig assembles a rig the way gimbald and the facade do: device →
// inert fault.Wrap → (tier) → fabric target, registry hub attached, tracer
// and SLO engine off; then one session and one worker per tenant. tenants
// may be a subset of def.tenants (standalone runs). With tr set, every
// layer gets a tagging scheduler and every device boundary a seam.
func buildSimRig(def *simDef, scheme fabric.Scheme, tenants []tenantDef, seed, precondSeed uint64, tr *simTrace) *simRig {
	r := &simRig{def: def, loop: sim.NewLoop(), tenants: tenants, tr: tr,
		rd: newFineHist(), wr: newFineHist(), probe: newFineHist()}
	clk := func(l layer) sim.Scheduler {
		if tr == nil {
			return r.loop
		}
		if r.scheds[l] == nil {
			r.scheds[l] = newTagSched(r.loop, tr.rec, l)
		}
		return r.scheds[l]
	}
	seam := func(inner ssd.Device, in, out layer) ssd.Device {
		if tr == nil {
			return inner
		}
		return newDevSeam(r.loop, tr.rec, inner, in, out)
	}

	var dev ssd.Device
	bottom := layerSSD
	tp := def.tierParams()
	if def.nullDev {
		dev = ssd.NewNull(clk(layerNullDev), 8<<30, 100)
		bottom = layerNullDev
	} else {
		p := ssd.DCT983()
		p.UsableBytes = def.capacity
		r.nand = ssd.New(clk(layerSSD), p)
		if tp != nil {
			r.nand.SetSnapshotTag(tp.SnapshotTag())
		}
		r.nand.Precondition(def.cond, sim.NewRNG(precondSeed))
		dev = r.nand
	}
	dev = seam(dev, bottom, layerFault)
	r.seamDev, _ = dev.(*devSeam)
	dev = fault.Wrap(clk(layerFault), dev)
	top := layerFault
	if tp != nil {
		dev = seam(dev, layerFault, layerTier)
		r.seamMid, _ = dev.(*devSeam)
		r.tier = tier.New(clk(layerTier), dev, *tp)
		dev = r.tier
		top = layerTier
	}
	dev = seam(dev, top, layerTarget)
	r.seamOut, _ = dev.(*devSeam)

	r.target = fabric.NewTarget(clk(layerTarget), []ssd.Device{dev}, fabric.DefaultTargetConfig(scheme))
	if r.tier != nil {
		if g := r.target.Pipeline(0).Gimbal; g != nil {
			g.SetCostModel(r.tier)
		}
	}
	if def.obs != obsNone {
		r.hub = obs.NewHub(obs.NewRegistry())
		if def.obs == obsSampledTracer {
			r.hub.Tracer = obs.NewTracer(obs.DefaultTracerConfig())
		}
		r.target.AttachObs(r.hub)
	}

	rng := sim.NewRNG(seed)
	for i, t := range tenants {
		tenant := nvme.NewTenant(i, fmt.Sprintf("%s-%d", t.Name, i))
		sess := r.target.Connect(tenant, 0)
		p := t.Profile
		if p.Span == 0 {
			p.Span = dev.Capacity()
		}
		st := &tenantStats{}
		cs := &clientSeam{inner: sess, loop: r.loop, st: st, rd: r.rd, wr: r.wr, tr: tr}
		if t.probe {
			cs.rd = r.probe
		}
		r.stats = append(r.stats, st)
		r.workers = append(r.workers, workload.NewWorker(r.loop, rng.Fork(), p, tenant, cs))
	}
	return r
}

// span runs fn inside a span of layer l when the rig is traced.
func (r *simRig) span(l layer, fn func()) {
	if r.tr == nil {
		fn()
		return
	}
	r.tr.rec.push(l, 0)
	fn()
	r.tr.rec.pop()
}

// start launches every worker; they submit until stopAt.
func (r *simRig) start(stopAt int64) {
	r.span(layerWorkload, func() {
		for _, w := range r.workers {
			w.Start(stopAt)
		}
	})
}

// runFor advances the rig by d simulated nanoseconds.
func (r *simRig) runFor(d int64) {
	r.span(layerSim, func() { r.loop.RunFor(d) })
}

// drain runs the loop until no foreground event is left.
func (r *simRig) drain() {
	r.span(layerSim, func() { r.loop.Run() })
}

// completed sums OK completions over all tenants (probe included: its IOs
// cost host time like any other).
func (r *simRig) completed() int64 {
	var n int64
	for _, s := range r.stats {
		n += s.completed
	}
	return n
}

// snapshot copies the cumulative per-tenant counters; a measured phase is
// the difference of two snapshots (the counters themselves are never
// reset, so attempted = completed + failed holds at the end).
func (r *simRig) snapshot() []tenantStats {
	out := make([]tenantStats, len(r.stats))
	for i, s := range r.stats {
		out[i] = *s
	}
	return out
}

// resetLatency empties the latency sinks at the start of a measured phase.
func (r *simRig) resetLatency() {
	r.rd.reset()
	r.wr.reset()
	r.probe.reset()
}

// check verifies the rig after its workers have drained: per tenant
// attempted = completed + failed, and the FTL invariants on NAND. It
// returns attempted and failed totals.
func (r *simRig) check() (attempted, failed int64, err error) {
	for i, s := range r.stats {
		if s.attempted != s.completed+s.failed {
			return 0, 0, fmt.Errorf("%s tenant %d: attempted %d != completed %d + failed %d",
				r.def.name, i, s.attempted, s.completed, s.failed)
		}
		attempted += s.attempted
		failed += s.failed
	}
	if r.nand != nil {
		if e := r.nand.FTLCheck(); e != nil {
			return attempted, failed, fmt.Errorf("%s FTLCheck: %w", r.def.name, e)
		}
	}
	return attempted, failed, nil
}
