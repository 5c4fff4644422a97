package fabric

import (
	"strconv"

	"gimbal/internal/nvme"
	"gimbal/internal/obs"
	"gimbal/internal/ssd"
)

// tenantObs is the per-tenant accounting a target keeps when observed:
// completed traffic counters, the registration time that anchors mean
// bandwidth, and the tenant's SLO tracker (nil when no engine is attached).
type tenantObs struct {
	bytes  *obs.Counter
	ops    *obs.Counter
	errors *obs.Counter
	slo    *obs.SLOTenant
	since  int64
	ssd    int
	tenant *nvme.Tenant
}

// pipeObs is one pipeline's tenant accounting. It is only ever touched in
// the pipeline's scheduler context (registration happens under Register,
// completions under the pipeline's completion path), so sharded pipelines
// keep shared-nothing telemetry state: no cross-shard map or lock.
type pipeObs struct {
	// reg receives this pipeline's instruments. In sharded live mode it is
	// the owning reactor's registry (gathered under that shard's lock); in
	// the simulator every pipeline shares the hub registry.
	reg     *obs.Registry
	tenants map[*nvme.Tenant]*tenantObs
	order   []*tenantObs
}

// targetObs holds the target-wide observability attachments.
type targetObs struct {
	slo *obs.SLOEngine
}

// AttachObs registers the target's pipelines into the hub: switch and
// device instruments per SSD, per-tenant completion counters (created
// lazily as tenants register), and — when the hub carries them — the span
// tracer, SLO engine, and recovery event log. Call before traffic; tenants
// that registered earlier are picked up retroactively. Every pipeline's
// instruments land in the hub registry.
func (t *Target) AttachObs(h *obs.Hub) {
	t.attachObs(h, nil)
}

// AttachObsSharded is AttachObs for the sharded live target: pipeline i's
// instruments (switch histograms, device gauges, per-tenant counters) are
// registered into regs[i], whose GatherLock must be pipeline i's scheduler
// shard — so a /metrics scrape of one reactor's instruments serializes
// only with that reactor, never with the others. A nil regs[i] falls back
// to the hub registry. The hub's tracer, SLO engine, and event log are
// shared sinks (internally synchronized) and are attached to every
// pipeline.
func (t *Target) AttachObsSharded(h *obs.Hub, regs []*obs.Registry) {
	if len(regs) != len(t.pipes) {
		panic("fabric: AttachObsSharded needs one registry per pipeline")
	}
	t.attachObs(h, regs)
}

func (t *Target) attachObs(h *obs.Hub, regs []*obs.Registry) {
	t.obs = &targetObs{slo: h.SLO}
	for i, p := range t.pipes {
		reg := h.Reg
		if regs != nil && regs[i] != nil {
			reg = regs[i]
		}
		p.pobs = &pipeObs{reg: reg, tenants: map[*nvme.Tenant]*tenantObs{}}
		if p.Gimbal != nil {
			ph := *h
			ph.Reg = reg
			p.Gimbal.AttachObs(&ph, i)
		}
		// The outermost layer that exports telemetry attaches the layers
		// below itself (tier → NAND); a bare fault wrapper has none of its
		// own, so the walk continues to the NAND model under it.
		if dev, ok := ssd.Find[ssd.ObsAttacher](p.Dev); ok {
			dev.AttachObs(reg, i)
		}
		for _, tn := range p.tenants {
			t.observeTenant(i, tn)
		}
		reg.Help("tenant_completed_bytes_total", "bytes completed per tenant")
		reg.Help("tenant_credit", "virtual-slot credit currently granted to the tenant")
	}
}

// observeTenant creates the per-tenant instruments (idempotent). Runs in
// the pipeline's scheduler context.
func (t *Target) observeTenant(ssdIdx int, tn *nvme.Tenant) {
	if t.obs == nil {
		return
	}
	p := t.pipes[ssdIdx]
	po := p.pobs
	if _, ok := po.tenants[tn]; ok {
		return
	}
	lb := obs.L("ssd", strconv.Itoa(ssdIdx), "tenant", tn.Name)
	to := &tenantObs{
		bytes:  po.reg.Counter("tenant_completed_bytes_total", lb),
		ops:    po.reg.Counter("tenant_completed_ops_total", lb),
		errors: po.reg.Counter("tenant_errors_total", lb),
		since:  p.clk.Now(),
		ssd:    ssdIdx,
		tenant: tn,
	}
	if t.obs.slo != nil {
		to.slo = t.obs.slo.Tenant(tn.Name)
	}
	po.tenants[tn] = to
	po.order = append(po.order, to)
	if sw := p.Gimbal; sw != nil {
		po.reg.GaugeFunc("tenant_credit", lb, func() float64 { return float64(sw.Credit(tn)) })
	}
}

// onCompletion feeds the per-tenant counters and the SLO engine (the
// caller nil-checks targetObs). Latency is end-to-end when the IO carries
// a client-side Origin stamp, target-side otherwise.
func (o *targetObs) onCompletion(p *Pipeline, now int64, io *nvme.IO, cpl nvme.Completion) {
	to, ok := p.pobs.tenants[io.Tenant]
	if !ok {
		return
	}
	ok2 := cpl.Status == nvme.StatusOK
	if ok2 {
		to.bytes.Add(int64(io.Size))
		to.ops.Inc()
	} else {
		to.errors.Inc()
	}
	if to.slo != nil {
		start := io.Origin
		if start == 0 {
			start = io.Arrival
		}
		lat := now - start
		if lat < 0 {
			lat = 0
		}
		to.slo.Observe(now, lat, ok2, io.Size)
	}
}
