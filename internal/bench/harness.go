package bench

import (
	"fmt"

	"gimbal/internal/fabric"
	"gimbal/internal/fault"
	"gimbal/internal/nvme"
	"gimbal/internal/obs"
	"gimbal/internal/sim"
	"gimbal/internal/ssd"
	"gimbal/internal/stats"
	"gimbal/internal/tier"
	"gimbal/internal/workload"
)

// FioConfig describes one synthetic-workload run: a set of worker streams
// against one or more SSDs behind a target running a scheme. Everything an
// experiment varies is a field here; the rig (NewFioRun) and the run loop
// (Ctx.Run) below are the only ones in the package.
type FioConfig struct {
	Scheme    fabric.Scheme
	Cond      ssd.Condition
	Params    ssd.Params // zero Name → DCT983 default
	NumSSD    int
	Specs     []Spec
	Warm, Dur int64
	Seed      uint64
	CPU       *fabric.CPUModel
	// Gimbal config override (ablations); nil uses the default.
	GimbalCfg func(*fabric.TargetConfig)
	// Sample, when set, is invoked every SamplePeriod of measured time.
	Sample       func(now int64, r *FioRun)
	SamplePeriod int64
	// Events fire at absolute times during the run (dynamic workloads).
	Events []TimedEvent
	// Faults, when set, is armed on the stack's fault layers (chaos
	// experiments). Session indices in the plan address r.Sessions in Spec
	// order.
	Faults *fault.Plan
	// Tier, when set, interposes a fast-tier cache with these parameters in
	// front of every SSD (see fabric.BuildStack for the stack's shape).
	Tier *tier.Params
	// Retry, when set, arms every session with the policy (initiator-side
	// deadlines + reissue).
	Retry *fabric.RetryPolicy
	// Trace, when set, attaches a span tracer with this config (per-IO
	// lifecycle capture; attribution experiments use Full mode).
	Trace *obs.TracerConfig
	// SLO, when set, attaches an SLO engine tracking every tenant against
	// this objective.
	SLO *obs.SLO
}

// Spec is one worker stream.
type Spec struct {
	workload.Profile
	SSD int
	// Gate, when set, builds the stream's client-side gate in place of the
	// scheme's (fabric.NopGater is a pass-through session: credits off).
	Gate func() fabric.Gater
}

// TimedEvent mutates the running experiment at a point in time.
type TimedEvent struct {
	At int64
	Do func(r *FioRun)
}

// FioRun is the one simulated rig — loop, stack, target, registry — and,
// once Ctx.Run has driven it, the finished run. Experiments whose load is
// not worker streams (tenant-scale's scenario engine, volume-churn's
// control-plane driver) build it with zero Specs and drive Loop themselves.
type FioRun struct {
	Loop *sim.Loop
	// RNG is the run's root generator after the stack's per-SSD forks and
	// the Specs' per-worker forks: a load generator that is not a Worker
	// draws from here.
	RNG      *sim.RNG
	Target   *fabric.Target
	Devices  []*ssd.SSD
	Workers  []*workload.Worker
	Sessions []*fabric.Session
	StopAt   int64
	// Reg is the run's metrics registry (attached before any tenant
	// registers, so per-tenant instruments cover the whole run).
	Reg *obs.Registry
	// Hub bundles Reg with the optional tracer, SLO engine, and event log
	// (populated per FioConfig.Trace / FioConfig.SLO).
	Hub *obs.Hub
	// Tiers exist when FioConfig.Tier was set (one per SSD, Spec order).
	Tiers []*tier.Device

	cfg FioConfig
}

// NewFioRun builds the rig: devices, target, sessions, and workers (not
// yet started).
func NewFioRun(cfg FioConfig) *FioRun {
	loop := sim.NewLoop()
	params := cfg.Params
	if params.Name == "" {
		params = ssd.DCT983()
	}
	if cfg.NumSSD < 1 {
		cfg.NumSSD = 1
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	rng := sim.NewRNG(seed)

	tcfg := fabric.DefaultTargetConfig(cfg.Scheme)
	tcfg.CPU = cfg.CPU
	if cfg.GimbalCfg != nil {
		cfg.GimbalCfg(&tcfg)
	}
	st, err := fabric.BuildStack(fabric.SharedClock(loop, cfg.NumSSD), rng, fabric.StackConfig{
		Params: params, Cond: cfg.Cond, Tier: cfg.Tier, Target: tcfg,
	})
	if err != nil {
		panic(err) // experiment configs are code, not input
	}
	target := st.Target

	r := &FioRun{Loop: loop, RNG: rng, Target: target, Devices: st.SSDs, Reg: obs.NewRegistry(),
		Tiers: st.Tiers, cfg: cfg}
	r.Hub = obs.NewHub(r.Reg)
	if cfg.Trace != nil {
		r.Hub.Tracer = obs.NewTracer(*cfg.Trace)
	}
	if cfg.SLO != nil {
		r.Hub.Events = obs.NewEventLog(1024)
		r.Hub.SLO = obs.NewSLOEngine(*cfg.SLO)
		r.Hub.SLO.SetEventLog(r.Hub.Events)
	}
	target.AttachObs(r.Hub)
	for i, spec := range cfg.Specs {
		r.AddWorker(spec, rng.Fork(), fmt.Sprintf("%s-%d", spec.Name, i))
	}
	if cfg.Faults != nil {
		e := st.Engine(loop)
		e.Fabric = func(ev fault.Event, active bool) {
			if ev.Session < 0 || ev.Session >= len(r.Sessions) {
				panic(fmt.Sprintf("bench: fault event %s addresses session %d of %d", ev.Kind, ev.Session, len(r.Sessions)))
			}
			r.Sessions[ev.Session].ApplyFault(ev, active, seed)
		}
		if r.Hub.Events != nil {
			e.OnEvent = func(ev fault.Event, active bool) {
				r.Hub.Events.Append(loop.Now(), ev.Kind.String(), fmt.Sprintf("ssd=%d", ev.SSD), active)
			}
		}
		if err := e.Arm(cfg.Faults); err != nil {
			panic(err) // chaos plans are code, not input
		}
	}
	return r
}

// AddWorker attaches one stream (usable mid-run for dynamic workloads).
func (r *FioRun) AddWorker(spec Spec, rng *sim.RNG, name string) *workload.Worker {
	tenant := nvme.NewTenant(len(r.Workers), name)
	var sess *fabric.Session
	if spec.Gate != nil {
		sess = r.Target.ConnectWithGater(tenant, spec.SSD, spec.Gate())
	} else {
		sess = r.Target.Connect(tenant, spec.SSD)
	}
	if r.cfg.Retry != nil {
		sess.SetRetryPolicy(*r.cfg.Retry)
	}
	p := spec.Profile
	if p.Span == 0 {
		p.Span = r.Devices[spec.SSD].Capacity()
	}
	w := workload.NewWorker(r.Loop, rng, p, tenant, sess)
	r.Workers = append(r.Workers, w)
	r.Sessions = append(r.Sessions, sess)
	return w
}

// Execute builds the rig and runs it.
func (c *Ctx) Execute(cfg FioConfig) *FioRun { return c.Run(NewFioRun(cfg)) }

// Run is the one run loop: start the workers, arm timed events and the
// sampler, warm up, reset stats, run the measured window, drain, and record
// the run's observability block in the context. An experiment that must
// touch the rig first (fig17 hooks Worker.OnDone) calls NewFioRun, then Run.
func (c *Ctx) Run(r *FioRun) *FioRun {
	cfg := r.cfg
	start := r.Loop.Now()
	stop := start + cfg.Warm + cfg.Dur
	r.StopAt = stop
	for _, w := range r.Workers {
		w.Start(stop)
	}
	for _, ev := range cfg.Events {
		r.Loop.At(ev.At, func() { ev.Do(r) })
	}
	if cfg.Sample != nil && cfg.SamplePeriod > 0 {
		var tick func()
		tick = func() {
			cfg.Sample(r.Loop.Now(), r)
			if r.Loop.Now() < stop {
				r.Loop.After(cfg.SamplePeriod, tick).MarkDaemon()
			}
		}
		r.Loop.After(cfg.SamplePeriod, tick).MarkDaemon()
	}
	r.Loop.RunUntil(start + cfg.Warm)
	for _, w := range r.Workers {
		w.ResetStats()
	}
	if r.Hub.SLO != nil {
		// The objective judges the measured window only, not warmup.
		r.Hub.SLO.Reset(r.Loop.Now())
	}
	r.Loop.RunUntil(stop)
	r.Loop.Run() // drain in-flight completions (daemon timers don't hold it)
	c.recordObsRun(r)
	return r
}

// byteSample is one reading of executeSampled: when, and each worker
// group's cumulative bytes since the stats reset that ended warmup.
type byteSample struct {
	at    int64
	bytes []int64
}

// executeSampled is Execute reading, every period of the measured window,
// the cumulative bytes of worker groups: group g is the workers from
// ends[g-1] (0 for the first) up to ends[g], in Spec order; workers past
// the last end are left out. Phase bandwidths are differences of two
// samples over their distance (mbps); each table keeps its own windows.
func (c *Ctx) executeSampled(cfg FioConfig, period int64, ends ...int) (*FioRun, []byteSample) {
	var samples []byteSample
	cfg.SamplePeriod = period
	cfg.Sample = func(now int64, r *FioRun) {
		if now <= cfg.Warm {
			return
		}
		s := byteSample{at: now, bytes: make([]int64, len(ends))}
		g := 0
		for i, w := range r.Workers[:ends[len(ends)-1]] {
			for i >= ends[g] {
				g++
			}
			s.bytes[g] += w.Meter.Bytes()
		}
		samples = append(samples, s)
	}
	return c.Execute(cfg), samples
}

// mbps is bytes over ns of simulated time, in MB/s.
func mbps(bytes, ns int64) float64 {
	if ns == 0 {
		return 0
	}
	return float64(bytes) / float64(ns) * 1e9 / 1e6
}

// AggBandwidth sums worker bandwidths (MB/s) filtered by a predicate.
func (r *FioRun) AggBandwidth(keep func(*workload.Worker) bool) float64 {
	var sum float64
	for _, w := range r.Workers {
		if keep == nil || keep(w) {
			sum += w.BandwidthMBps()
		}
	}
	return sum
}

// StandaloneMax measures (with per-context memoization) a profile's
// exclusive bandwidth on a vanilla target — the denominator of f-Util
// (§5.1).
func (c *Ctx) StandaloneMax(p workload.Profile, cond ssd.Condition, params ssd.Params) float64 {
	if params.Name == "" {
		params = ssd.DCT983()
	}
	key := fmt.Sprintf("%s|%v|%d|%v|%v|%d", params.Name, cond, p.IOSize, p.ReadRatio, p.Seq, p.QD)
	if v, ok := c.standaloneCache[key]; ok {
		return v
	}
	p.Name = "standalone"
	p.RateLimitBps = 0
	run := c.Execute(FioConfig{
		Scheme: fabric.SchemeVanilla,
		Cond:   cond,
		Params: params,
		Specs:  []Spec{{Profile: p}},
		Warm:   300 * sim.Millisecond,
		Dur:    700 * sim.Millisecond,
		Seed:   99,
	})
	v := run.Workers[0].BandwidthMBps()
	c.standaloneCache[key] = v
	return v
}

// stream is a closed-loop worker profile over uniform random offsets
// (readRatio 1 = read-only, 0 = write-only); sequential makes one sequential.
func stream(name string, readRatio float64, ioSize, qd int) workload.Profile {
	return workload.Profile{Name: name, ReadRatio: readRatio, IOSize: ioSize, QD: qd}
}

func sequential(p workload.Profile) workload.Profile {
	p.Seq = true
	return p
}

// §5.1's microbenchmark settings (QD4 for 128KB, QD32 for 4KB; 128KB
// writes sequential, 4KB writes random, all reads random).
func read128K() workload.Profile  { return stream("rd128k", 1, 128<<10, 4) }
func write128K() workload.Profile { return sequential(stream("wr128k", 0, 128<<10, 4)) }
func read4K() workload.Profile    { return stream("rd4k", 1, 4096, 32) }
func write4K() workload.Profile   { return stream("wr4k", 0, 4096, 32) }

// opLat is a write-only worker's write histogram, else its read histogram.
func opLat(w *workload.Worker) *stats.Histogram {
	if w.Profile().ReadRatio == 0 {
		return w.WriteLat
	}
	return w.ReadLat
}

// streams is one Spec per profile, all on SSD 0.
func streams(ps ...workload.Profile) []Spec {
	out := make([]Spec, len(ps))
	for i, p := range ps {
		out[i] = Spec{Profile: p}
	}
	return out
}

// repeat clones a profile into n Specs.
func repeat(p workload.Profile, n int) []Spec {
	out := make([]Spec, n)
	for i := range out {
		out[i] = Spec{Profile: p}
	}
	return out
}
