// Package gimbal is the public API of this repository: a from-scratch Go
// reproduction of "Gimbal: Enabling Multi-tenant Storage Disaggregation on
// SmartNIC JBOFs" (SIGCOMM 2021).
//
// The package wraps the internal building blocks — the discrete-event SSD
// model, the NVMe-oF fabric, the Gimbal storage switch, the baseline
// schedulers, and the fault-injection engine — behind a small facade
// configured with functional options:
//
//	s := gimbal.NewSim(42)
//	jbof, _ := s.NewJBOF(
//		gimbal.WithScheme(gimbal.SchemeGimbal),
//		gimbal.WithCondition(gimbal.Fragmented),
//	)
//	ssd0, _ := jbof.WholeSSDVolume(0)
//	reader, _ := ssd0.StartWorkload(gimbal.WithReadFraction(1),
//		gimbal.WithIOSize(4096), gimbal.WithQueueDepth(32))
//	writer, _ := ssd0.StartWorkload(gimbal.WithReadFraction(0),
//		gimbal.WithIOSize(4096), gimbal.WithQueueDepth(32))
//	s.Run(2 * time.Second) // two seconds of simulated time
//	fmt.Println(reader.BandwidthMBps(), writer.BandwidthMBps())
//
// Faults are scripted, seed-deterministic schedules injected into a
// running JBOF:
//
//	jbof.InjectFaults(gimbal.FaultPlan{Seed: 7, Events: []gimbal.FaultEvent{
//		{Kind: gimbal.SSDBrownout, At: time.Second, Duration: time.Second,
//			SSD: 0, Factor: 8},
//	}})
//
// Streams run against volumes: WholeSSDVolume(i) for a raw device,
// CreateVolume for a managed (thin, snapshot/clone-capable) one. Failures
// surface as typed sentinel errors (ErrBadSSDIndex, ErrTimeout, ...) that
// work with errors.Is.
//
// Experiments reproducing the paper's figures — including the chaos
// family — live in cmd/gimbalbench; the live TCP target and initiator are
// cmd/gimbald and cmd/gimbalcli; runnable examples are under examples/.
package gimbal

import (
	"errors"
	"fmt"
	"time"

	"gimbal/internal/core"
	"gimbal/internal/fabric"
	"gimbal/internal/fault"
	"gimbal/internal/nvme"
	"gimbal/internal/sim"
	"gimbal/internal/ssd"
	"gimbal/internal/volume"
	"gimbal/internal/workload"
)

// Sentinel errors. All errors returned by the facade wrap one of these, so
// callers dispatch with errors.Is.
var (
	// ErrUnknownScheme reports a scheme name outside the evaluation set.
	ErrUnknownScheme = errors.New("gimbal: unknown scheme")
	// ErrUnknownCondition reports an unrecognized pre-conditioning state.
	ErrUnknownCondition = errors.New("gimbal: unknown condition")
	// ErrBadSSDIndex reports an SSD index outside the JBOF.
	ErrBadSSDIndex = errors.New("gimbal: ssd index out of range")
	// ErrNoView reports that the scheme exposes no per-SSD virtual view
	// (only the Gimbal switch computes one, §3.7).
	ErrNoView = errors.New("gimbal: scheme exposes no virtual view")
	// ErrBadFaultPlan reports a fault plan that references SSDs, dies, or
	// streams the JBOF does not have, or carries nonsense parameters.
	ErrBadFaultPlan = errors.New("gimbal: invalid fault plan")
	// ErrDeviceFailed reports a stream that gave up because the target
	// rejected its IOs against a failed device.
	ErrDeviceFailed = errors.New("gimbal: device failed")
	// ErrTimeout reports a stream that gave up after exhausting its retry
	// budget on IO deadlines.
	ErrTimeout = errors.New("gimbal: io deadline exceeded")
	// ErrAborted reports a stream whose session was torn down under it.
	ErrAborted = errors.New("gimbal: io aborted")
)

// Scheme names a multi-tenancy mechanism.
type Scheme string

// The schemes of the paper's evaluation (§5.1).
const (
	SchemeGimbal  Scheme = "gimbal"
	SchemeVanilla Scheme = "vanilla"
	SchemeReflex  Scheme = "reflex"
	SchemeFlashFQ Scheme = "flashfq"
	SchemeParda   Scheme = "parda"
)

// Condition is an SSD pre-conditioning state (§5.1).
type Condition string

// Conditions.
const (
	Fresh      Condition = "fresh"
	Clean      Condition = "clean"
	Fragmented Condition = "fragmented"
)

func (c Condition) internal() (ssd.Condition, error) {
	if c == "" {
		return ssd.Fresh, nil
	}
	cond, err := ssd.ParseCondition(string(c))
	if err != nil {
		return 0, fmt.Errorf("%w: %q", ErrUnknownCondition, string(c))
	}
	return cond, nil
}

// Sim is a deterministic simulation universe with a virtual clock.
type Sim struct {
	loop *sim.Loop
	rng  *sim.RNG
	seed uint64
}

// NewSim creates a simulation; runs with the same seed and the same calls
// produce identical results.
func NewSim(seed uint64) *Sim {
	if seed == 0 {
		seed = 1
	}
	return &Sim{loop: sim.NewLoop(), rng: sim.NewRNG(seed), seed: seed}
}

// Run advances the simulation by d of virtual time.
func (s *Sim) Run(d time.Duration) { s.loop.RunFor(int64(d)) }

// Now returns the current virtual time since the simulation epoch.
func (s *Sim) Now() time.Duration { return time.Duration(s.loop.Now()) }

// jbofConfig is what the JBOFOption set fills in.
type jbofConfig struct {
	Scheme    Scheme    // default SchemeGimbal
	SSDs      int       // default 1
	Condition Condition // default Fresh
	// CapacityBytes per SSD; default 8 GiB (the scaled DCT983 model).
	CapacityBytes int64
	// P3600 selects the Intel P3600-like device model (§5.8) instead of
	// the Samsung DCT983 model.
	P3600 bool
	// QoSClasses declares named QoS classes as "gold=8,silver=4,..."
	// (see WithQoSClasses). Empty keeps the scheduler in flat mode with
	// the default class menu available for volume placement.
	QoSClasses string
}

// JBOFOption customizes a JBOF under construction.
type JBOFOption func(*jbofConfig)

// WithScheme selects the multi-tenancy scheme (default SchemeGimbal).
func WithScheme(sc Scheme) JBOFOption { return func(c *jbofConfig) { c.Scheme = sc } }

// WithSSDs sets the number of SSDs (default 1).
func WithSSDs(n int) JBOFOption { return func(c *jbofConfig) { c.SSDs = n } }

// WithCondition sets the pre-conditioning state (default Fresh).
func WithCondition(cond Condition) JBOFOption { return func(c *jbofConfig) { c.Condition = cond } }

// WithCapacity sets the usable bytes per SSD.
func WithCapacity(bytes int64) JBOFOption { return func(c *jbofConfig) { c.CapacityBytes = bytes } }

// WithP3600 selects the Intel P3600-like device model (§5.8).
func WithP3600() JBOFOption { return func(c *jbofConfig) { c.P3600 = true } }

// JBOF is a SmartNIC storage node: SSDs behind per-SSD scheduler pipelines,
// each device wrapped in a fault-injection layer (inert — a single branch —
// until a plan is armed).
type JBOF struct {
	sim      *Sim
	target   *fabric.Target
	scheme   fabric.Scheme
	devices  []*ssd.SSD
	engine   *fault.Engine
	streams  []*Stream
	planSeed uint64
	nextID   int

	// Volume control plane (lazily built; see volume_api.go).
	classes *volume.ClassSet
	vmgr    *volume.Manager
}

// NewJBOF builds and pre-conditions a storage node.
func (s *Sim) NewJBOF(opts ...JBOFOption) (*JBOF, error) {
	var cfg jbofConfig
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.SSDs <= 0 {
		cfg.SSDs = 1
	}
	if cfg.Scheme == "" {
		cfg.Scheme = SchemeGimbal
	}
	scheme, err := fabric.ParseScheme(string(cfg.Scheme))
	if err != nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownScheme, string(cfg.Scheme))
	}
	cond, err := cfg.Condition.internal()
	if err != nil {
		return nil, err
	}
	params := ssd.DCT983()
	if cfg.P3600 {
		params = ssd.P3600()
	}
	if cfg.CapacityBytes > 0 {
		params.UsableBytes = cfg.CapacityBytes
	}
	classes := volume.DefaultClasses()
	if cfg.QoSClasses != "" {
		classes, err = volume.ParseClasses(cfg.QoSClasses)
		if err != nil {
			return nil, volErr(fmt.Errorf("bad qos classes: %w", err))
		}
	}
	tcfg := fabric.DefaultTargetConfig(scheme)
	if cfg.QoSClasses != "" {
		// Explicitly declared classes compile into the hierarchical DRR;
		// the default menu leaves the scheduler flat (paper-identical).
		tcfg.Gimbal.Sched.ClassWeights = classes.Compile().ClassWeights
	}
	st, err := fabric.BuildStack(fabric.SharedClock(s.loop, cfg.SSDs), s.rng,
		fabric.StackConfig{Params: params, Cond: cond, Target: tcfg})
	if err != nil {
		return nil, fmt.Errorf("gimbal: %w", err)
	}
	j := &JBOF{sim: s, scheme: scheme, classes: classes, target: st.Target, devices: st.SSDs}
	j.engine = st.Engine(s.loop)
	j.engine.Fabric = func(ev fault.Event, active bool) {
		j.streams[ev.Session].sess.ApplyFault(ev, active, j.planSeed)
	}
	return j, nil
}

// SSDCount returns the number of SSDs.
func (j *JBOF) SSDCount() int { return len(j.devices) }

func (j *JBOF) checkSSD(ssdIdx int) error {
	if ssdIdx < 0 || ssdIdx >= len(j.devices) {
		return fmt.Errorf("%w: %d of %d", ErrBadSSDIndex, ssdIdx, len(j.devices))
	}
	return nil
}

// Priority mirrors the NVMe-oF request priority tag (§3.5).
type Priority int

// Priorities.
const (
	High   Priority = 0
	Normal Priority = 1
	Low    Priority = 2
)

// RetryPolicy is the initiator-side recovery policy of a stream's session:
// per-IO deadlines with bounded, idempotent reissue under capped
// exponential backoff.
type RetryPolicy struct {
	Timeout    time.Duration // per-attempt deadline; 0 disables deadlines
	MaxRetries int           // reissues after the first attempt
	Backoff    time.Duration // delay before the first reissue, doubling after
	BackoffCap time.Duration // ceiling for the doubled backoff
}

// DefaultRetryPolicy mirrors the fabric's default initiator policy.
func DefaultRetryPolicy() RetryPolicy {
	p := fabric.DefaultRetryPolicy()
	return RetryPolicy{
		Timeout:    time.Duration(p.Timeout),
		MaxRetries: p.MaxRetries,
		Backoff:    time.Duration(p.Backoff),
		BackoffCap: time.Duration(p.BackoffCap),
	}
}

func (p RetryPolicy) internal() fabric.RetryPolicy {
	return fabric.RetryPolicy{
		Timeout:    int64(p.Timeout),
		MaxRetries: p.MaxRetries,
		Backoff:    int64(p.Backoff),
		BackoffCap: int64(p.BackoffCap),
	}
}

// workloadConfig is the fio-style stream description the WorkloadOption
// set fills in.
type workloadConfig struct {
	Name       string
	Read       float64 // fraction of reads: 1 read-only, 0 write-only
	IOSize     int     // bytes, 4KB multiple; default 4096
	QueueDepth int     // default 1
	Sequential bool
	// RateLimitMBps caps the stream (0 = unlimited).
	RateLimitMBps float64
	Priority      Priority
	prioSet       bool // Priority was chosen explicitly (class defaults step aside)
	// MaxConsecutiveErrs: see WithMaxConsecutiveErrs. 0 = facade default.
	MaxConsecutiveErrs int
	retry              *fabric.RetryPolicy
}

// WorkloadOption customizes one stream.
type WorkloadOption func(*workloadConfig)

// WithWorkloadName labels the stream's tenant.
func WithWorkloadName(name string) WorkloadOption { return func(c *workloadConfig) { c.Name = name } }

// WithReadFraction sets the read share: 1 read-only, 0 write-only.
func WithReadFraction(r float64) WorkloadOption { return func(c *workloadConfig) { c.Read = r } }

// WithIOSize sets the IO size in bytes (4KB multiple, default 4096).
func WithIOSize(bytes int) WorkloadOption { return func(c *workloadConfig) { c.IOSize = bytes } }

// WithQueueDepth sets the stream's outstanding-IO bound (default 1).
func WithQueueDepth(qd int) WorkloadOption { return func(c *workloadConfig) { c.QueueDepth = qd } }

// WithSequential makes the stream sequential instead of random.
func WithSequential() WorkloadOption { return func(c *workloadConfig) { c.Sequential = true } }

// WithRateLimitMBps caps the stream's submission rate.
func WithRateLimitMBps(mbps float64) WorkloadOption {
	return func(c *workloadConfig) { c.RateLimitMBps = mbps }
}

// WithPriority sets the NVMe-oF priority tag (§3.5).
func WithPriority(p Priority) WorkloadOption {
	return func(c *workloadConfig) { c.Priority = p; c.prioSet = true }
}

// WithMaxConsecutiveErrs makes the stream give up — Done() true, Err()
// non-nil — after n back-to-back failed IOs (default 64); negative means
// never give up.
func WithMaxConsecutiveErrs(n int) WorkloadOption {
	return func(c *workloadConfig) { c.MaxConsecutiveErrs = n }
}

// WithRetry arms the stream's session with an initiator-side recovery
// policy: deadlines, bounded idempotent reissue, capped backoff.
func WithRetry(p RetryPolicy) WorkloadOption {
	return func(c *workloadConfig) { rp := p.internal(); c.retry = &rp }
}

// Stream is a running workload with live metrics.
type Stream struct {
	sim    *Sim
	worker *workload.Worker
	sess   *fabric.Session // primary session (fabric fault address)
	sesss  []*fabric.Session
}

// Stop ends the stream's submissions.
func (s *Stream) Stop() { s.worker.Stop() }

// Done reports whether the stream has stopped submitting — because Stop
// was called, its horizon passed, or it gave up on a persistent failure
// (in which case Err explains why).
func (s *Stream) Done() bool { return s.worker.Stopped() }

// Err returns nil while the stream is healthy, and the typed failure —
// ErrTimeout, ErrDeviceFailed, ErrAborted — once the stream has given up
// after WithMaxConsecutiveErrs back-to-back errors.
func (s *Stream) Err() error {
	st, failed := s.worker.Failed()
	if !failed {
		return nil
	}
	switch st {
	case nvme.StatusTimeout:
		return ErrTimeout
	case nvme.StatusDeviceFailed:
		return ErrDeviceFailed
	case nvme.StatusAborted:
		return ErrAborted
	}
	return fmt.Errorf("gimbal: stream failed with NVMe status %#04x", uint16(st))
}

// ResetStats restarts measurement (typically after a warmup period).
func (s *Stream) ResetStats() { s.worker.ResetStats() }

// BandwidthMBps returns the measured goodput since the last reset.
func (s *Stream) BandwidthMBps() float64 { return s.worker.BandwidthMBps() }

// Retries returns how many reissues the stream's sessions performed.
func (s *Stream) Retries() int64 {
	var n int64
	for _, sess := range s.sesss {
		n += sess.Retries
	}
	return n
}

// Latency summarizes the stream's end-to-end latency since the last reset.
type Latency struct {
	Avg, P50, P99, P999 time.Duration
	Count               uint64
}

// ReadLatency returns the read latency summary.
func (s *Stream) ReadLatency() Latency { return toLatency(s.worker.ReadLat) }

// WriteLatency returns the write latency summary.
func (s *Stream) WriteLatency() Latency { return toLatency(s.worker.WriteLat) }

func toLatency(h interface {
	Mean() float64
	Quantile(float64) int64
	Count() uint64
}) Latency {
	return Latency{
		Avg:   time.Duration(h.Mean()),
		P50:   time.Duration(h.Quantile(0.5)),
		P99:   time.Duration(h.Quantile(0.99)),
		P999:  time.Duration(h.Quantile(0.999)),
		Count: h.Count(),
	}
}

// CreditHeadroom returns the tenant's current flow-control headroom (the
// §4.3 load-balancing signal); very large when the scheme has no client
// gate. A stream over a managed volume spanning several SSDs reports the
// tightest session.
func (s *Stream) CreditHeadroom() int {
	h := s.sess.Headroom()
	for _, sess := range s.sesss[1:] {
		if sh := sess.Headroom(); sh < h {
			h = sh
		}
	}
	return h
}

// View is the per-SSD virtual view Gimbal exposes to tenants (§3.7).
type View struct {
	TargetRateMBps     float64
	CompletionRateMBps float64
	WriteCost          float64
	ReadShareMBps      float64
	WriteShareMBps     float64
	// Degraded reports the switch clamped tenant credits because the
	// device is browning out; Failed reports the fail-fast latch is set.
	Degraded bool
	Failed   bool
}

// ssdView returns the SSD's virtual view. The error is ErrNoView unless the
// JBOF runs the Gimbal scheme, ErrBadSSDIndex for an index outside it.
func (j *JBOF) ssdView(ssdIdx int) (View, error) {
	if err := j.checkSSD(ssdIdx); err != nil {
		return View{}, err
	}
	g := j.target.Pipeline(ssdIdx).Gimbal
	if g == nil {
		return View{}, ErrNoView
	}
	v := g.View()
	return View{
		TargetRateMBps:     v.TargetRateBps / 1e6,
		CompletionRateMBps: v.CompletionRateBps / 1e6,
		WriteCost:          v.WriteCost,
		ReadShareMBps:      v.ReadShareBps / 1e6,
		WriteShareMBps:     v.WriteShareBps / 1e6,
		Degraded:           v.Degraded,
		Failed:             v.Failed,
	}, nil
}

// DeviceStats reports SSD-internal counters (write amplification, GC).
type DeviceStats struct {
	ReadBytes, WriteBytes int64
	WriteAmplification    float64
	GCMovedPages          uint64
	Erases                uint64
}

// FaultKind identifies one fault type in a FaultPlan.
type FaultKind int

// Fault kinds. SSD faults address a device by index; fabric faults address
// a stream by its StartWorkload order.
const (
	// SSDLatencySpike adds Extra to every IO's service time for the window.
	SSDLatencySpike FaultKind = iota
	// SSDBrownout multiplies every IO's service time by Factor for the
	// window (the device still works, slowly).
	SSDBrownout
	// SSDDieStall blocks one flash die for the window.
	SSDDieStall
	// SSDFail makes the device fail every IO with a media error for the
	// window (Duration 0 = forever).
	SSDFail
	// FabricDrop drops each frame with probability Prob for the window.
	FabricDrop
	// FabricDuplicate duplicates each command frame with probability Prob.
	FabricDuplicate
	// FabricDelay adds Extra (± jittered by Jitter) to each frame;
	// reordering emerges from jittered delays.
	FabricDelay
	// FabricDisconnect tears the stream's session down at At, permanently.
	FabricDisconnect
)

func (k FaultKind) internal() (fault.Kind, error) {
	switch k {
	case SSDLatencySpike:
		return fault.SSDLatencySpike, nil
	case SSDBrownout:
		return fault.SSDBrownout, nil
	case SSDDieStall:
		return fault.SSDDieStall, nil
	case SSDFail:
		return fault.SSDFail, nil
	case FabricDrop:
		return fault.FabricDrop, nil
	case FabricDuplicate:
		return fault.FabricDuplicate, nil
	case FabricDelay:
		return fault.FabricDelay, nil
	case FabricDisconnect:
		return fault.FabricDisconnect, nil
	}
	return 0, fmt.Errorf("%w: unknown fault kind %d", ErrBadFaultPlan, int(k))
}

// FaultEvent is one scheduled fault.
type FaultEvent struct {
	Kind FaultKind
	// At is when the fault engages, measured from the simulation epoch.
	At time.Duration
	// Duration is the fault window; after it the fault reverts. Zero means
	// permanent for SSDFail and is invalid for other windowed kinds.
	Duration time.Duration

	SSD    int // target device (SSD kinds)
	Die    int // target die (SSDDieStall)
	Stream int // target stream in StartWorkload order (fabric kinds)

	Factor float64       // service-time multiplier (SSDBrownout; ≥ 1)
	Extra  time.Duration // added latency (SSDLatencySpike, FabricDelay)
	Jitter time.Duration // delay jitter bound (FabricDelay)
	Prob   float64       // per-frame probability (FabricDrop, FabricDuplicate)
}

// FaultPlan is a scripted, seed-deterministic fault schedule. The Seed
// feeds the per-stream RNGs deciding probabilistic frame faults, so a
// chaos run replays exactly.
type FaultPlan struct {
	Seed   uint64
	Events []FaultEvent
}

// InjectFaults validates and arms a fault plan against the running JBOF.
// Streams referenced by fabric events must already have been started. On
// the Gimbal scheme this also arms the target-side recovery machinery
// (fail-fast latch and graceful degradation, with its defaults) so the
// switch reacts to the injected faults the way §3.7 describes. Returns an
// error wrapping ErrBadFaultPlan if the plan references devices, dies, or
// streams the JBOF does not have.
func (j *JBOF) InjectFaults(p FaultPlan) error {
	ip := &fault.Plan{Seed: p.Seed}
	for _, ev := range p.Events {
		k, err := ev.Kind.internal()
		if err != nil {
			return err
		}
		ip.Events = append(ip.Events, fault.Event{
			Kind:    k,
			At:      int64(ev.At),
			Dur:     int64(ev.Duration),
			SSD:     ev.SSD,
			Die:     ev.Die,
			Session: ev.Stream,
			Factor:  ev.Factor,
			Extra:   int64(ev.Extra),
			Extra2:  int64(ev.Jitter),
			Prob:    ev.Prob,
		})
	}
	if err := ip.Validate(len(j.devices), len(j.streams)); err != nil {
		return fmt.Errorf("%w: %v", ErrBadFaultPlan, err)
	}
	if j.scheme == fabric.SchemeGimbal {
		for i := range j.devices {
			if g := j.target.Pipeline(i).Gimbal; g != nil {
				g.EnableRecovery(core.DefaultRecoveryConfig())
			}
		}
	}
	j.planSeed = p.Seed
	if err := j.engine.Arm(ip); err != nil {
		return fmt.Errorf("%w: %v", ErrBadFaultPlan, err)
	}
	return nil
}

// DeviceStats returns internal counters for one SSD.
func (j *JBOF) DeviceStats(ssdIdx int) (DeviceStats, error) {
	if err := j.checkSSD(ssdIdx); err != nil {
		return DeviceStats{}, err
	}
	st := j.devices[ssdIdx].Stats()
	return DeviceStats{
		ReadBytes:          st.ReadBytes,
		WriteBytes:         st.WriteBytes,
		WriteAmplification: st.WriteAmp,
		GCMovedPages:       st.GCMovedPages,
		Erases:             st.Erases,
	}, nil
}
