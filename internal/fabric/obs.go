package fabric

import (
	"strconv"

	"gimbal/internal/obs"
	"gimbal/internal/ssd"
	"gimbal/internal/tier"
)

// This file is where a storage node meets the registry, and the only place
// that names the series of the layers below the switch. The layers
// themselves know nothing of telemetry: the tier, the NAND model and the
// per-tenant records count in plain fields of their own (Stats(),
// tenantRec), and the functions registered here read them at collection
// time, under the registry's GatherLock. A new layer's series belong in
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

// exportDevice names the series of a pipeline's device stack: the fast
// tier's, when one is interposed, then the NAND model's, each found under
// whatever wraps it (fault layers, the benchmark's seams).
func exportDevice(reg *obs.Registry, dev ssd.Device, lb obs.Labels) {
	if t, ok := ssd.Find[*tier.Device](dev); ok {
		reg.Help("tier_hits_total", "reads served entirely from the fast tier")
		reg.Help("tier_misses_total", "reads forwarded to NAND")
		reg.Help("tier_writeback_total", "writes absorbed into the fast tier")
		reg.Help("tier_writearound_total", "writes routed around the fast tier")
		reg.Help("tier_destage_ops_total", "coalesced destage span writes issued to NAND")
		reg.Help("tier_occupancy_frac", "fraction of tier slots holding resident pages")

		reg.CounterFunc("tier_hits_total", lb, func() int64 { return t.Stats().Hits })
		reg.CounterFunc("tier_misses_total", lb, func() int64 { return t.Stats().Misses })
		reg.CounterFunc("tier_hit_bytes_total", lb, func() int64 { return t.Stats().HitBytes })
		reg.CounterFunc("tier_writeback_total", lb, func() int64 { return t.Stats().WriteBacks })
		reg.CounterFunc("tier_writearound_total", lb, func() int64 { return t.Stats().WriteArounds })
		reg.CounterFunc("tier_absorbed_overwrites_total", lb, func() int64 { return t.Stats().Absorbed })
		reg.CounterFunc("tier_promotions_total", lb, func() int64 { return t.Stats().Promotions })
		reg.CounterFunc("tier_evictions_total", lb, func() int64 { return t.Stats().Evictions })
		reg.CounterFunc("tier_destage_ops_total", lb, func() int64 { return t.Stats().Destages })
		reg.CounterFunc("tier_destage_bytes_total", lb, func() int64 { return t.Stats().DestageBytes })
		reg.GaugeFunc("tier_resident_pages", lb, func() float64 { return float64(t.Stats().Resident) })
		reg.GaugeFunc("tier_dirty_pages", lb, func() float64 { return float64(t.Stats().Dirty) })
		p := t.Params()
		slots := float64(p.FastBytes / int64(p.PageSize))
		reg.GaugeFunc("tier_occupancy_frac", lb, func() float64 { return float64(t.Stats().Resident) / slots })
	}
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
