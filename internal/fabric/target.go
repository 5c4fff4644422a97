package fabric

import (
	"fmt"
	"strings"

	"gimbal/internal/baseline/flashfq"
	"gimbal/internal/baseline/reflex"
	"gimbal/internal/baseline/vanilla"
	"gimbal/internal/core"
	"gimbal/internal/nvme"
	"gimbal/internal/sim"
	"gimbal/internal/ssd"
)

// Scheme selects the multi-tenancy mechanism (§5.1's comparison set).
type Scheme int

// Schemes under evaluation.
const (
	SchemeVanilla Scheme = iota
	SchemeGimbal
	SchemeReflex
	SchemeFlashFQ
	SchemeParda // vanilla target + client-side PARDA windows
)

// String names the scheme as the paper's figures do.
func (s Scheme) String() string {
	switch s {
	case SchemeVanilla:
		return "vanilla"
	case SchemeGimbal:
		return "gimbal"
	case SchemeReflex:
		return "reflex"
	case SchemeFlashFQ:
		return "flashfq"
	case SchemeParda:
		return "parda"
	default:
		return "scheme(?)"
	}
}

// AllSchemes is the comparison set of the evaluation figures.
var AllSchemes = []Scheme{SchemeReflex, SchemeFlashFQ, SchemeParda, SchemeGimbal}

// ParseScheme resolves a scheme name.
func ParseScheme(name string) (Scheme, error) {
	switch strings.ToLower(name) {
	case "vanilla":
		return SchemeVanilla, nil
	case "gimbal":
		return SchemeGimbal, nil
	case "reflex":
		return SchemeReflex, nil
	case "flashfq":
		return SchemeFlashFQ, nil
	case "parda":
		return SchemeParda, nil
	}
	return 0, fmt.Errorf("fabric: unknown scheme %q", name)
}

// TargetConfig configures a storage node.
type TargetConfig struct {
	Scheme  Scheme
	Gimbal  core.Config
	Reflex  reflex.Config
	FlashFQ flashfq.Config
	// CPU models the node's cores; nil disables CPU accounting.
	CPU *CPUModel
	// Net is the per-session link model.
	Net NetConfig
}

// DefaultTargetConfig returns the paper's parameters for the scheme.
func DefaultTargetConfig(s Scheme) TargetConfig {
	return TargetConfig{
		Scheme:  s,
		Gimbal:  core.DefaultConfig(),
		Reflex:  reflex.DefaultConfig(),
		FlashFQ: flashfq.DefaultConfig(),
		Net:     DefaultNet(),
	}
}

// Pipeline is one per-SSD shared-nothing pipeline (§4.1). Everything a
// pipeline touches per IO — its clock, its ingress-op freelist, its tenant
// accounting — lives here, never on the Target, so pipelines driven by
// different scheduler shards (live reactor mode) share no mutable state.
type Pipeline struct {
	Sched nvme.Scheduler
	Dev   ssd.Device
	// Gimbal is non-nil when the scheme is Gimbal (virtual-view access).
	Gimbal *core.Switch

	// clk drives this pipeline. In the simulator every pipeline shares one
	// scheduler; on the live target each pipeline runs on its reactor's
	// shard.
	clk sim.Scheduler

	// tenants lists every tenant registered on this pipeline (stats).
	tenants []*nvme.Tenant

	// opFree recycles per-IO ingress tracking state for this pipeline.
	opFree []*ingressOp

	// pobs is the pipeline's tenant accounting; nil until AttachObs.
	pobs *pipeObs
}

// Clock returns the scheduler driving this pipeline.
func (p *Pipeline) Clock() sim.Scheduler { return p.clk }

// Tenants returns the tenants registered on this pipeline.
func (p *Pipeline) Tenants() []*nvme.Tenant { return p.tenants }

// Target is a storage node: a set of SSDs, each behind its own scheduler
// pipeline, fronted by the SmartNIC CPU model.
type Target struct {
	clk   sim.Scheduler
	cfg   TargetConfig
	pipes []*Pipeline

	// obs is the attached telemetry state; nil by default.
	obs *targetObs
}

// NewTarget builds a node over the devices with the configured scheme.
func NewTarget(clk sim.Scheduler, devs []ssd.Device, cfg TargetConfig) *Target {
	return NewShardedTarget(SharedClock(clk, len(devs)), devs, cfg)
}

// NewShardedTarget builds a node whose pipeline i runs entirely on
// clks[i]: device, scheduler, and ingress accounting for SSD i are only
// ever touched under that scheduler's serialization. This is the target
// shape of the live reactor datapath — each reactor drives the pipelines
// built on its shard and never takes another shard's lock. clks[0] is the
// canonical clock for whole-target snapshots (shards share an epoch).
// The shared-pool CPU model cannot be charged from concurrent shards, so
// cfg.CPU must be nil when the clocks differ.
func NewShardedTarget(clks []sim.Scheduler, devs []ssd.Device, cfg TargetConfig) *Target {
	if len(clks) != len(devs) {
		panic("fabric: NewShardedTarget needs one scheduler per device")
	}
	if len(devs) == 0 {
		panic("fabric: target needs at least one device")
	}
	if cfg.CPU != nil {
		for _, c := range clks[1:] {
			if c != clks[0] {
				panic("fabric: the shared CPU model cannot run on sharded schedulers")
			}
		}
	}
	t := &Target{clk: clks[0], cfg: cfg}
	for i, dev := range devs {
		clk := clks[i]
		p := &Pipeline{Dev: dev, clk: clk}
		switch cfg.Scheme {
		case SchemeGimbal:
			sw := core.New(clk, dev, cfg.Gimbal)
			p.Gimbal = sw
			p.Sched = sw
		case SchemeReflex:
			p.Sched = reflex.New(clk, dev, cfg.Reflex)
		case SchemeFlashFQ:
			p.Sched = flashfq.New(clk, dev, cfg.FlashFQ)
		case SchemeVanilla, SchemeParda:
			p.Sched = vanilla.New(clk, dev)
		default:
			panic("fabric: unknown scheme")
		}
		t.pipes = append(t.pipes, p)
	}
	return t
}

// SSDs returns the number of device pipelines.
func (t *Target) SSDs() int { return len(t.pipes) }

// Pipeline returns the pipeline for an SSD index.
func (t *Target) Pipeline(i int) *Pipeline { return t.pipes[i] }

// Scheme returns the configured scheme.
func (t *Target) Scheme() Scheme { return t.cfg.Scheme }

// Register announces a tenant on an SSD pipeline.
func (t *Target) Register(ssdIdx int, tenant *nvme.Tenant) {
	p := t.pipes[ssdIdx]
	for _, tn := range p.tenants {
		if tn == tenant {
			p.Sched.Register(tenant)
			return
		}
	}
	p.tenants = append(p.tenants, tenant)
	p.Sched.Register(tenant)
	t.observeTenant(ssdIdx, tenant)
}

// Disconnect tears a tenant down from an SSD pipeline: the scheduler
// reclaims its state (for Gimbal, the vslot credits and DRR membership, so
// a dead tenant can never strand slot allotments) and its queued,
// never-dispatched IOs complete with StatusAborted through their normal
// completion path (CPU egress charge, telemetry, reply capsule).
func (t *Target) Disconnect(ssdIdx int, tenant *nvme.Tenant) {
	p := t.pipes[ssdIdx]
	for i, tn := range p.tenants {
		if tn == tenant {
			p.tenants = append(p.tenants[:i], p.tenants[i+1:]...)
			break
		}
	}
	if rem, ok := p.Sched.(nvme.TenantRemover); ok {
		for _, io := range rem.Unregister(tenant) {
			io.Done(io, nvme.Completion{Status: nvme.StatusAborted})
		}
	}
}

// ingressOp tracks one IO through a pipeline: the saved downstream callback,
// the completion held across the CPU egress charge, and the pre-bound
// closures the submit/complete paths schedule. Recycled via t.opFree, so the
// NIC pipeline allocates nothing per IO in steady state.
type ingressOp struct {
	t          *Target
	pipe       *Pipeline
	io         *nvme.IO
	downstream func(*nvme.IO, nvme.Completion)
	cpl        nvme.Completion

	doneFn     func(*nvme.IO, nvme.Completion)
	enqueueFn  func()
	completeFn func()
}

// getIngressOp takes an op off the pipeline's freelist. Freelists are
// per-pipeline so sharded pipelines never share op state.
func (p *Pipeline) getIngressOp(t *Target) *ingressOp {
	if n := len(p.opFree); n > 0 {
		op := p.opFree[n-1]
		p.opFree = p.opFree[:n-1]
		return op
	}
	op := &ingressOp{t: t}
	op.doneFn = func(io *nvme.IO, cpl nvme.Completion) { op.onDone(io, cpl) }
	op.enqueueFn = func() { op.pipe.Sched.Enqueue(op.io) }
	op.completeFn = func() { op.complete() }
	return op
}

// onDone observes the scheduler-side completion, charges the CPU egress
// cost, and forwards to the downstream (wire) callback.
func (op *ingressOp) onDone(io *nvme.IO, cpl nvme.Completion) {
	t := op.t
	pipe := op.pipe
	if t.obs != nil {
		t.obs.onCompletion(pipe, pipe.clk.Now(), io, cpl)
	}
	if t.cfg.CPU == nil {
		op.finish(cpl)
		return
	}
	op.cpl = cpl
	at := t.cfg.CPU.ChargeIO(pipe.clk.Now(), t.cfg.CPU.CompleteCost, io.Size)
	pipe.clk.At(at, op.completeFn)
}

func (op *ingressOp) complete() { op.finish(op.cpl) }

// finish recycles the op before invoking downstream so a back-to-back
// resubmission through this target can reuse it immediately.
func (op *ingressOp) finish(cpl nvme.Completion) {
	io, downstream, pipe := op.io, op.downstream, op.pipe
	op.io, op.downstream, op.pipe = nil, nil, nil
	pipe.opFree = append(pipe.opFree, op)
	downstream(io, cpl)
}

// Ingress injects an IO into a pipeline, charging the per-IO SmartNIC CPU
// cost on both the submission and completion paths (§2.4). The io.Done
// already set on the IO receives the completion after the egress charge.
// Callers in sharded live mode must hold the pipeline's shard lock.
func (t *Target) Ingress(ssdIdx int, io *nvme.IO) {
	pipe := t.pipes[ssdIdx]
	if io.Origin == 0 {
		// No transport stamped a client-side send time; anchor the
		// fabric span at NIC ingress so FabricDelay covers only the
		// CPU submit charge.
		io.Origin = pipe.clk.Now()
	}
	op := pipe.getIngressOp(t)
	op.pipe = pipe
	op.io = io
	op.downstream = io.Done
	io.Done = op.doneFn
	if t.cfg.CPU == nil {
		pipe.Sched.Enqueue(io)
		return
	}
	at := t.cfg.CPU.ChargeIO(pipe.clk.Now(), t.cfg.CPU.SubmitCost, io.Size)
	pipe.clk.At(at, op.enqueueFn)
}
