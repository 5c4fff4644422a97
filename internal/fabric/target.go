package fabric

import (
	"fmt"
	"strings"

	"gimbal/internal/baseline/flashfq"
	"gimbal/internal/baseline/reflex"
	"gimbal/internal/baseline/vanilla"
	"gimbal/internal/core"
	"gimbal/internal/nvme"
	"gimbal/internal/obs"
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
	idx int // SSD index, the pipeline's ssd label

	// recs holds the one record of every tenant that ever registered here
	// (Register and Disconnect are its only users; the IO path carries the
	// record itself); order lists them as they arrived, the rows of /stats.
	recs  map[*nvme.Tenant]*tenantRec
	order []*tenantRec

	// opFree recycles per-IO ingress tracking state for this pipeline.
	opFree []*ingressOp

	// reg receives the pipeline's series; nil until AttachObs. In sharded
	// live mode it is the owning reactor's registry (gathered under that
	// shard's lock); in the simulator every pipeline shares the hub's.
	reg *obs.Registry
	// tracer captures the lifecycle of the IOs the device served, for
	// every scheme, at egress (ingressOp.onDone); devEx are the exemplar
	// slots (read, write) of the Gimbal switch's device-latency histograms,
	// which the capture links. Nil until AttachObs with a tracer.
	tracer *obs.Tracer
	devEx  [2]*obs.ExemplarSlot
}

// tenantRec is everything a pipeline keeps about one tenant: identity,
// completed-traffic counters (plain fields, written on the completion path
// in the pipeline's scheduler context and read under the same
// serialization), the registration time that anchors mean bandwidth, and
// the SLO tracker (nil when no engine is attached). Register hands it to
// the tenant's transport, which passes it back with every Ingress, so
// booking a completion is three adds on a pointer the IO already carries.
// live is cleared by Disconnect; the record — a departed tenant's /stats
// row and registry series — stays.
type tenantRec struct {
	tenant *nvme.Tenant
	pipe   *Pipeline

	bytes, ops, errors int64

	since int64
	slo   *obs.SLOTenant
	live  bool
}

// Clock returns the scheduler driving this pipeline.
func (p *Pipeline) Clock() sim.Scheduler { return p.clk }

// Target is a storage node: a set of SSDs, each behind its own scheduler
// pipeline, fronted by the SmartNIC CPU model.
type Target struct {
	clk   sim.Scheduler
	cfg   TargetConfig
	pipes []*Pipeline

	// slo is the attached SLO engine; nil by default.
	slo *obs.SLOEngine
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
		p := &Pipeline{Dev: dev, clk: clk, idx: i, recs: map[*nvme.Tenant]*tenantRec{}}
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

// Register announces a tenant on an SSD pipeline and returns its record
// there, which the caller keeps and hands to Ingress with every IO. A
// tenant that registers again (after a Disconnect, or from a second
// session) gets the record it had.
func (t *Target) Register(ssdIdx int, tenant *nvme.Tenant) *tenantRec {
	p := t.pipes[ssdIdx]
	rec := p.recs[tenant]
	if rec == nil {
		rec = &tenantRec{tenant: tenant, pipe: p, since: p.clk.Now()}
		p.recs[tenant] = rec
		p.order = append(p.order, rec)
		t.observeTenant(rec)
	}
	rec.live = true
	p.Sched.Register(tenant)
	return rec
}

// Disconnect tears a tenant down from its SSD pipeline: the scheduler
// reclaims its state (for Gimbal, the vslot credits and DRR membership, so
// a dead tenant can never strand slot allotments) and its queued,
// never-dispatched IOs complete with StatusAborted through their normal
// completion path (CPU egress charge, telemetry, reply capsule).
func (t *Target) Disconnect(rec *tenantRec) {
	rec.live = false
	if rem, ok := rec.pipe.Sched.(nvme.TenantRemover); ok {
		for _, io := range rem.Unregister(rec.tenant) {
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
	rec        *tenantRec
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
	op.enqueueFn = func() { op.rec.pipe.Sched.Enqueue(op.io) }
	op.completeFn = func() { op.complete() }
	return op
}

// onDone is the pipeline's egress: it books the scheduler-side completion
// on the tenant's record (and its SLO tracker, from the transport's Origin
// stamp), offers the IO to the tracer, charges the CPU egress cost, and
// forwards to the downstream (wire) callback.
func (op *ingressOp) onDone(io *nvme.IO, cpl nvme.Completion) {
	t, rec := op.t, op.rec
	ok := cpl.Status == nvme.StatusOK
	if ok {
		rec.bytes += int64(io.Size)
		rec.ops++
	} else {
		rec.errors++
	}
	if rec.slo != nil {
		now := rec.pipe.clk.Now()
		rec.slo.Observe(now, now-io.Origin, ok, io.Size)
	}
	if rec.pipe.tracer != nil && cpl.Status.Served() {
		rec.pipe.trace(rec, io)
	}
	if t.cfg.CPU == nil {
		op.finish(cpl)
		return
	}
	op.cpl = cpl
	at := t.cfg.CPU.chargeIO(rec.pipe.clk.Now(), t.cfg.Scheme, io.Size, false)
	rec.pipe.clk.At(at, op.completeFn)
}

func (op *ingressOp) complete() { op.finish(op.cpl) }

// trace offers one IO the device served to the tracer, sampled on its
// scheduler residency, and links a captured trace from the switch's
// device-latency exemplar. Allocation-free: the trace travels by value
// into the tracer's ring, and the exemplar slot is a guarded value.
func (p *Pipeline) trace(rec *tenantRec, io *nvme.IO) {
	now := p.clk.Now()
	if !p.tracer.Sample(now - io.Arrival) {
		return
	}
	tr := obs.Stamps(io, now)
	tr.SSD, tr.Tenant, tr.Op, tr.Size = p.idx, rec.tenant.Name, io.Op.String(), io.Size
	span := p.tracer.Capture(tr)
	w := 0
	if io.Op.IsWrite() {
		w = 1
	}
	if ex := p.devEx[w]; ex != nil {
		ex.Set(obs.Exemplar{Value: float64(tr.Phases()[obs.PhaseDevice]), Span: span, Tenant: tr.Tenant, At: now})
	}
}

// finish recycles the op before invoking downstream so a back-to-back
// resubmission through this target can reuse it immediately.
func (op *ingressOp) finish(cpl nvme.Completion) {
	io, downstream, pipe := op.io, op.downstream, op.rec.pipe
	op.io, op.downstream, op.rec = nil, nil, nil
	pipe.opFree = append(pipe.opFree, op)
	downstream(io, cpl)
}

// Ingress injects a tenant's IO into the pipeline it registered on (rec is
// what Register returned), charging the scheme's per-IO SmartNIC CPU cost on
// both the submission and completion paths (§2.4). The transport has stamped
// io.Origin; the io.Done already set on the IO receives the completion after
// the egress charge. Callers in sharded live mode must hold the pipeline's
// shard lock.
func (t *Target) Ingress(rec *tenantRec, io *nvme.IO) {
	pipe := rec.pipe
	op := pipe.getIngressOp(t)
	op.rec = rec
	op.io = io
	op.downstream = io.Done
	io.Done = op.doneFn
	if t.cfg.CPU == nil {
		pipe.Sched.Enqueue(io)
		return
	}
	at := t.cfg.CPU.chargeIO(pipe.clk.Now(), t.cfg.Scheme, io.Size, true)
	pipe.clk.At(at, op.enqueueFn)
}
