package fabric

import (
	"strconv"

	"gimbal/internal/obs"
	"gimbal/internal/ssd"
)

// This file is where a storage node meets the registry, and the only place
// that names the series of the layers below the switch. The layers
// themselves know nothing of telemetry: the NAND model and the per-tenant
// records count in plain fields of their own (Stats(), tenantRec), and the
// functions registered here read them at collection time, under the
// registry's GatherLock. A new layer's series belong in
// exportDevice, over that layer's Stats(), found with ssd.Find.

// AttachObs registers the target's pipelines into the hub: switch and
// device series per SSD, per-tenant completion counters (added as tenants
// register), and — when the hub carries them — the span tracer, SLO
// engine, and recovery event log. Call before traffic; tenants that
// registered earlier are picked up retroactively. Every pipeline's series
// land in the hub registry.
func (t *Target) AttachObs(h *obs.Hub) {
	t.attachObs(h, nil)
}

// AttachObsSharded is AttachObs for the sharded live target: pipeline i's
// series (switch histograms, device and per-tenant counters) are
// registered into regs[i], whose GatherLock must be pipeline i's scheduler
// shard — what they read is that pipeline's plain state, and a /metrics
// scrape of one reactor's series serializes only with that reactor, never
// with the others. A nil regs[i] falls back to the hub registry. The hub's
// tracer, SLO engine, and event log are shared sinks (internally
// synchronized) and are attached to every pipeline.
func (t *Target) AttachObsSharded(h *obs.Hub, regs []*obs.Registry) {
	if len(regs) != len(t.pipes) {
		panic("fabric: AttachObsSharded needs one registry per pipeline")
	}
	t.attachObs(h, regs)
}

func (t *Target) attachObs(h *obs.Hub, regs []*obs.Registry) {
	t.slo = h.SLO
	for i, p := range t.pipes {
		p.reg = h.Reg
		if regs != nil && regs[i] != nil {
			p.reg = regs[i]
		}
		if p.Gimbal != nil {
			ph := *h
			ph.Reg = p.reg
			p.Gimbal.AttachObs(&ph, i)
		}
		exportDevice(p.reg, p.Dev, obs.L("ssd", strconv.Itoa(i)))
		for _, rec := range p.order {
			t.observeTenant(rec)
		}
		p.reg.Help("tenant_completed_bytes_total", "bytes completed per tenant")
		p.reg.Help("tenant_credit", "virtual-slot credit currently granted to the tenant")
	}
}

// exportDevice names the series of a pipeline's device stack: the NAND
// model's, found under whatever wraps it (fault layers, the benchmark's
// seams).
func exportDevice(reg *obs.Registry, dev ssd.Device, lb obs.Labels) {
	if s, ok := ssd.Find[*ssd.SSD](dev); ok {
		reg.Help("ssd_gc_invocations_total", "program batches that triggered garbage collection")
		reg.Help("ssd_flush_batches_total", "write-buffer flush batches programmed to NAND")
		reg.Help("ssd_write_amplification", "cumulative (host+gc)/host page programs")

		reg.CounterFunc("ssd_gc_invocations_total", lb, func() int64 { return s.Stats().GCInvocations })
		reg.CounterFunc("ssd_flush_batches_total", lb, func() int64 { return s.Stats().FlushBatches })
		reg.CounterFunc("ssd_flushed_bytes_total", lb, func() int64 { return s.Stats().FlushedBytes })
		reg.GaugeFunc("ssd_write_amplification", lb, func() float64 { return s.Stats().WriteAmp })
		reg.GaugeFunc("ssd_gc_moved_pages", lb, func() float64 { return float64(s.Stats().GCMovedPages) })
		reg.GaugeFunc("ssd_erases", lb, func() float64 { return float64(s.Stats().Erases) })
		reg.GaugeFunc("ssd_free_blocks", lb, func() float64 { return float64(s.Stats().FreeBlocks) })
		reg.GaugeFunc("ssd_buf_occupancy_bytes", lb, func() float64 { return float64(s.Stats().BufOccupancy) })
		reg.GaugeFunc("ssd_queued_host_cmds", lb, func() float64 { return float64(s.Stats().QueuedHost) })
		reg.CounterFunc("ssd_read_bytes_total", lb, func() int64 { return s.Stats().ReadBytes })
		reg.CounterFunc("ssd_write_bytes_total", lb, func() int64 { return s.Stats().WriteBytes })
		reg.CounterFunc("ssd_read_ops_total", lb, func() int64 { return s.Stats().ReadOps })
		reg.CounterFunc("ssd_write_ops_total", lb, func() int64 { return s.Stats().WriteOps })
	}
}

// observeTenant exports a tenant record into its pipeline's registry (a
// no-op on an unobserved target) and hooks it to the SLO engine. Runs in
// the pipeline's scheduler context, once per record.
func (t *Target) observeTenant(rec *tenantRec) {
	p := rec.pipe
	if p.reg == nil {
		return
	}
	lb := obs.L("ssd", strconv.Itoa(p.idx), "tenant", rec.tenant.Name)
	p.reg.CounterFunc("tenant_completed_bytes_total", lb, func() int64 { return rec.bytes })
	p.reg.CounterFunc("tenant_completed_ops_total", lb, func() int64 { return rec.ops })
	p.reg.CounterFunc("tenant_errors_total", lb, func() int64 { return rec.errors })
	if t.slo != nil {
		rec.slo = t.slo.Tenant(rec.tenant.Name)
	}
	if sw := p.Gimbal; sw != nil {
		p.reg.GaugeFunc("tenant_credit", lb, func() float64 { return float64(sw.Credit(rec.tenant)) })
	}
}
