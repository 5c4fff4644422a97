package ssd

import (
	"strconv"

	"gimbal/internal/obs"
)

// deviceObs holds the event counters an observed SSD increments inline;
// everything stateful (write amplification, buffer occupancy, free blocks)
// is exported as gauge functions sampled at collection time, so the
// device's hot path pays only nil checks plus counter adds.
type deviceObs struct {
	gcInvocations *obs.Counter
	flushBatches  *obs.Counter
	flushedBytes  *obs.Counter
}

// ObsAttacher is a device layer that exports telemetry. A wrapper that
// implements it attaches the layers below itself, so callers attach only
// the outermost one: Find[ObsAttacher](dev).
type ObsAttacher interface {
	AttachObs(reg *obs.Registry, ssdIdx int)
}

// AttachObs registers this SSD's telemetry into reg under an ssd label.
// Call once, before traffic, from scheduler context.
func (s *SSD) AttachObs(reg *obs.Registry, ssdIdx int) {
	lb := obs.L("ssd", strconv.Itoa(ssdIdx))
	s.obs = &deviceObs{
		gcInvocations: reg.Counter("ssd_gc_invocations_total", lb),
		flushBatches:  reg.Counter("ssd_flush_batches_total", lb),
		flushedBytes:  reg.Counter("ssd_flushed_bytes_total", lb),
	}
	reg.Help("ssd_gc_invocations_total", "program batches that triggered garbage collection")
	reg.Help("ssd_flush_batches_total", "write-buffer flush batches programmed to NAND")
	reg.Help("ssd_write_amplification", "cumulative (host+gc)/host page programs")

	reg.GaugeFunc("ssd_write_amplification", lb, func() float64 { return s.ftl.writeAmplification() })
	reg.GaugeFunc("ssd_gc_moved_pages", lb, func() float64 { return float64(s.ftl.gcMoved) })
	reg.GaugeFunc("ssd_erases", lb, func() float64 { return float64(s.ftl.gcErases) })
	reg.GaugeFunc("ssd_free_blocks", lb, func() float64 { return float64(s.ftl.freeBlocks()) })
	reg.GaugeFunc("ssd_buf_occupancy_bytes", lb, func() float64 { return float64(s.bufOccupancy) })
	reg.GaugeFunc("ssd_queued_host_cmds", lb, func() float64 { return float64(len(s.waitQ) - s.waitHead) })
	reg.GaugeFunc("ssd_read_bytes_total", lb, func() float64 { return float64(s.stats.ReadBytes) })
	reg.GaugeFunc("ssd_write_bytes_total", lb, func() float64 { return float64(s.stats.WriteBytes) })
	reg.GaugeFunc("ssd_read_ops_total", lb, func() float64 { return float64(s.stats.ReadOps) })
	reg.GaugeFunc("ssd_write_ops_total", lb, func() float64 { return float64(s.stats.WriteOps) })
}
