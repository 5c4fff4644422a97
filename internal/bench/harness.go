package bench

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

// FioConfig describes one synthetic-workload run: a set of worker streams
// against one or more SSDs behind a target running a scheme.
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
	// this default objective over SLOWindows (nil → obs.DefaultSLOWindows).
	SLO        *obs.SLO
	SLOWindows []int64
}

// Spec is one worker stream.
type Spec struct {
	workload.Profile
	SSD int
}

// TimedEvent mutates the running experiment at a point in time.
type TimedEvent struct {
	At int64
	Do func(r *FioRun)
}

// FioRun is a live/finished run.
type FioRun struct {
	Loop     *sim.Loop
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
	// Wraps are the per-SSD fault layers; Engine exists when a fault plan
	// is armed on them.
	Wraps  []*fault.Device
	Engine *fault.Engine
	// Tiers exist when FioConfig.Tier was set (one per SSD, Spec order).
	Tiers []*tier.Device

	retry *fabric.RetryPolicy
	seed  uint64
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

	r := &FioRun{Loop: loop, Target: target, Devices: st.SSDs, Reg: obs.NewRegistry(),
		Wraps: st.Wraps, Tiers: st.Tiers, retry: cfg.Retry, seed: seed}
	r.Hub = obs.NewHub(r.Reg)
	if cfg.Trace != nil {
		r.Hub.Tracer = obs.NewTracer(*cfg.Trace)
	}
	if cfg.SLO != nil {
		r.Hub.Events = obs.NewEventLog(1024)
		r.Hub.SLO = obs.NewSLOEngine(obs.SLOConfig{Default: *cfg.SLO, WindowsNs: cfg.SLOWindows})
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
			r.Sessions[ev.Session].ApplyFault(ev, active, r.seed)
		}
		if r.Hub.Events != nil {
			e.OnEvent = func(ev fault.Event, active bool) {
				r.Hub.Events.Append(loop.Now(), ev.Kind.String(), fmt.Sprintf("ssd=%d", ev.SSD), active)
			}
		}
		if err := e.Arm(cfg.Faults); err != nil {
			panic(err) // chaos plans are code, not input
		}
		r.Engine = e
	}
	return r
}

// AddWorker attaches one stream (usable mid-run for dynamic workloads).
func (r *FioRun) AddWorker(spec Spec, rng *sim.RNG, name string) *workload.Worker {
	tenant := nvme.NewTenant(len(r.Workers), name)
	tenant.Class = spec.Profile.Class
	sess := r.Target.Connect(tenant, spec.SSD)
	if r.retry != nil {
		sess.SetRetryPolicy(*r.retry)
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

// AttachWorker adds a worker over an externally built session (ablations
// that customize the client-side gate).
func (r *FioRun) AttachWorker(p workload.Profile, tenant *nvme.Tenant, sess *fabric.Session, rng *sim.RNG) *workload.Worker {
	w := workload.NewWorker(r.Loop, rng, p, tenant, sess)
	r.Workers = append(r.Workers, w)
	r.Sessions = append(r.Sessions, sess)
	return w
}

// Execute runs warmup, resets stats, runs the measured window (with
// samples and timed events), then drains. The run's observability block is
// recorded in the context.
func (c *Ctx) Execute(cfg FioConfig) *FioRun {
	r := NewFioRun(cfg)
	start := r.Loop.Now()
	stop := start + cfg.Warm + cfg.Dur
	r.StopAt = stop
	for _, w := range r.Workers {
		w.Start(stop)
	}
	for _, ev := range cfg.Events {
		ev := ev
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
	c.recordObsRun(cfg, r)
	return r
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

// Common profile constructors matching §5.1's microbenchmark settings
// (QD4 for 128KB, QD32 for 4KB; 128KB writes sequential, 4KB writes
// random, all reads random).
func read128K() workload.Profile {
	return workload.Profile{Name: "rd128k", ReadRatio: 1, IOSize: 128 << 10, QD: 4}
}
func write128K() workload.Profile {
	return workload.Profile{Name: "wr128k", ReadRatio: 0, IOSize: 128 << 10, QD: 4, Seq: true}
}
func read4K() workload.Profile {
	return workload.Profile{Name: "rd4k", ReadRatio: 1, IOSize: 4096, QD: 32}
}
func write4K() workload.Profile {
	return workload.Profile{Name: "wr4k", ReadRatio: 0, IOSize: 4096, QD: 32}
}

// repeat clones a spec n times.
func repeat(p workload.Profile, n int) []Spec {
	out := make([]Spec, n)
	for i := range out {
		out[i] = Spec{Profile: p}
	}
	return out
}
