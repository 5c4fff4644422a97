package core

import (
	"strconv"

	"gimbal/internal/core/latmon"
	"gimbal/internal/nvme"
	"gimbal/internal/obs"
	"gimbal/internal/stats"
)

// This file is the switch's telemetry boundary. Everything the switch
// counts lives in Switch.stats (switch.go), incremented unconditionally;
// AttachObs only tells a registry how to read it — counter and gauge
// functions sampled at collection time, under the registry's GatherLock.

// switchObs is the remainder, what has to be pushed per IO because it is a
// distribution or a sample, not a count. It exists only when a hub is
// attached; the completion path nil-checks the pointer once
// (BenchmarkSwitchSubmit measures the unobserved cost).
type switchObs struct {
	// Span histograms (ns), one per pipeline phase.
	queueDelay  *stats.Histogram
	vslotWait   *stats.Histogram
	pacingStall *stats.Histogram
	readDevLat  *stats.Histogram
	writeDevLat *stats.Histogram
	gcStall     *stats.Histogram

	// Exemplars chain the device-latency quantiles to captured spans.
	readDevEx  *obs.ExemplarSlot
	writeDevEx *obs.ExemplarSlot

	tracer *obs.Tracer
	events *obs.EventLog
	ssd    int
	ssdTag string // preformatted "ssd=<n>" event detail
}

// AttachObs exports the switch into the hub's registry under an ssd label:
// its counters and control-loop state as functions read at collection
// time, its span histograms as instruments fed per completion. When the
// hub carries a tracer, every completion is offered as a per-IO lifecycle
// span (origin → arrival → admit → submit → device done → completion sent,
// plus the vslot- and GC-attributed waits); when it carries an event log,
// degrade and fail-fast transitions are appended for SLO correlation. Call
// once, before traffic, from scheduler context.
func (sw *Switch) AttachObs(h *obs.Hub, ssdIdx int) {
	reg := h.Reg
	idx := strconv.Itoa(ssdIdx)
	lb, rd, wr := obs.L("ssd", idx), obs.L("ssd", idx, "op", "read"), obs.L("ssd", idx, "op", "write")
	st := &sw.stats
	for _, c := range []struct {
		name string
		v    *int64
	}{
		{"gimbal_pacing_stalls_total", &st.PacingStalls},
		{"gimbal_cost_ticks_total", &st.CostTicks},
		{"gimbal_cost_changes_total", &st.CostChanges},
		{"gimbal_aborted_ios_total", &st.AbortedIOs},
		{"gimbal_failfast_rejects_total", &st.FailFastRejects},
		{"gimbal_failfast_latches_total", &st.FailLatches},
		{"gimbal_failfast_recoveries_total", &st.FailRecoveries},
		{"gimbal_degrade_enters_total", &st.DegradeEnters},
		{"gimbal_degrade_exits_total", &st.DegradeExits},
		{"gimbal_tenant_teardowns_total", &st.TenantTeardowns},
		{"gimbal_submits_total", &st.Submits},
		{"gimbal_completions_total", &st.Completions},
	} {
		reg.CounterFunc(c.name, lb, func() int64 { return *c.v })
	}
	for s := latmon.Underutilized; s <= latmon.Overloaded; s++ {
		for class, op := range [2]string{"read", "write"} {
			v := &st.Transitions[class][s]
			reg.CounterFunc("gimbal_congestion_transitions_total",
				obs.L("ssd", idx, "op", op, "state", s.String()), func() int64 { return *v })
		}
	}
	o := &switchObs{
		queueDelay:  reg.Histogram("gimbal_queue_delay_ns", lb),
		vslotWait:   reg.Histogram("gimbal_vslot_wait_ns", lb),
		pacingStall: reg.Histogram("gimbal_pacing_stall_ns", lb),
		readDevLat:  reg.Histogram("gimbal_device_latency_ns", rd),
		writeDevLat: reg.Histogram("gimbal_device_latency_ns", wr),
		gcStall:     reg.Histogram("gimbal_gc_stall_ns", lb),
		tracer:      h.Tracer,
		events:      h.Events,
		ssd:         ssdIdx,
		ssdTag:      "ssd=" + idx,
	}
	if h.Tracer != nil {
		o.readDevEx = reg.ExemplarSlot("gimbal_device_latency_ns", rd)
		o.writeDevEx = reg.ExemplarSlot("gimbal_device_latency_ns", wr)
	}

	reg.Help("gimbal_pacing_stalls_total", "Submission-pump passes that stopped for want of rate-pacer tokens (an IO can stall several)")
	reg.Help("gimbal_aborted_ios_total", "IOs completed with StatusAborted at the switch (teardown or late capsule)")
	reg.Help("gimbal_failfast_rejects_total", "IOs rejected while the device was latched failed")
	reg.Help("gimbal_failfast_latches_total", "times the fail-fast latch engaged")
	reg.Help("gimbal_failfast_recoveries_total", "times the fail-fast latch released")
	reg.Help("gimbal_degrade_enters_total", "times graceful degradation engaged")
	reg.Help("gimbal_degrade_exits_total", "times graceful degradation released")
	reg.Help("gimbal_tenant_teardowns_total", "tenant sessions torn down with state reclaim")
	reg.Help("gimbal_congestion_transitions_total", "latency-monitor congestion state changes")
	reg.Help("gimbal_device_latency_ns", "device service time net of GC-attributed stall")
	reg.Help("gimbal_queue_delay_ns", "scheduler queueing delay (arrival to DRR admit, net of vslot wait)")
	reg.Help("gimbal_vslot_wait_ns", "time queued with every virtual slot closed (congestion clamp)")
	reg.Help("gimbal_pacing_stall_ns", "token pacing delay (DRR admit to device submit)")
	reg.Help("gimbal_gc_stall_ns", "device-side wait attributed to garbage collection")
	reg.Help("gimbal_drr_registered_tenants", "tenants registered with the scheduler (active or not)")
	reg.Help("gimbal_drr_slot_share", "current per-tenant virtual-slot allotment from the lazy redistribution epoch")

	reg.GaugeFunc("gimbal_write_cost", lb, func() float64 { return sw.cost.Cost() })
	reg.GaugeFunc("gimbal_target_rate_bps", lb, func() float64 { return sw.rate.TargetRate() })
	reg.GaugeFunc("gimbal_completion_rate_bps", lb, func() float64 { return sw.rate.CompletionRate() })
	reg.GaugeFunc("gimbal_read_latency_ewma_ns", lb, func() float64 { return sw.rmon.EWMA() })
	reg.GaugeFunc("gimbal_write_latency_ewma_ns", lb, func() float64 { return sw.wmon.EWMA() })
	reg.GaugeFunc("gimbal_read_latency_threshold_ns", lb, func() float64 { return sw.rmon.Threshold() })
	reg.GaugeFunc("gimbal_write_latency_threshold_ns", lb, func() float64 { return sw.wmon.Threshold() })
	reg.GaugeFunc("gimbal_drr_queued", lb, func() float64 { return float64(sw.drr.Queued()) })
	reg.GaugeFunc("gimbal_drr_active_tenants", lb, func() float64 { return float64(sw.drr.ActiveTenants()) })
	reg.GaugeFunc("gimbal_drr_deferred_tenants", lb, func() float64 { return float64(sw.drr.DeferredTenants()) })
	reg.GaugeFunc("gimbal_drr_registered_tenants", lb, func() float64 { return float64(sw.drr.RegisteredTenants()) })
	reg.GaugeFunc("gimbal_drr_slot_share", lb, func() float64 { return float64(sw.drr.SlotShare()) })
	reg.GaugeFunc("gimbal_tokens_bytes", rd, func() float64 { r, _ := sw.rate.Tokens(); return r })
	reg.GaugeFunc("gimbal_tokens_bytes", wr, func() float64 { _, w := sw.rate.Tokens(); return w })

	sw.obs = o
}

// event appends one recovery-state transition to the shared event log, if
// the switch is observed and the hub carries one.
func (o *switchObs) event(at int64, kind string, active bool) {
	if o != nil && o.events != nil {
		o.events.Append(at, kind, o.ssdTag, active)
	}
}

// onComplete records the span histograms and offers the lifecycle trace
// for one finished IO; doneAt is when the completion left the switch.
// Everything here is allocation-free: histogram records are array
// updates, the trace travels by value, and the exemplar slot is a
// mutex-guarded value.
func (o *switchObs) onComplete(io *nvme.IO, doneAt int64) {
	admit := io.Admit
	if admit == 0 {
		admit = io.DevSubmit
	}
	queue := admit - io.Arrival - io.VslotWait
	if queue < 0 {
		queue = 0
	}
	o.queueDelay.Record(queue)
	o.vslotWait.Record(io.VslotWait)
	o.pacingStall.Record(io.DevSubmit - admit)
	o.gcStall.Record(io.GCWait)
	devLat := io.DeviceLatency() - io.GCWait
	if devLat < 0 {
		devLat = 0
	}
	isWrite := io.Op.IsWrite()
	if isWrite {
		o.writeDevLat.Record(devLat)
	} else {
		o.readDevLat.Record(devLat)
	}
	if o.tracer.Sample(doneAt - io.Arrival) {
		name := ""
		if io.Tenant != nil {
			name = io.Tenant.Name
		}
		span := o.tracer.Capture(obs.IOTrace{
			SSD:     o.ssd,
			Tenant:  name,
			Op:      io.Op.String(),
			Size:    io.Size,
			Origin:  io.Origin,
			Arrival: io.Arrival,
			Admit:   admit,
			Submit:  io.DevSubmit,
			DevDone: io.DevDone,
			Done:    doneAt,
			VslotNs: io.VslotWait,
			GCNs:    io.GCWait,
		})
		slot := o.readDevEx
		if isWrite {
			slot = o.writeDevEx
		}
		if slot != nil {
			slot.Set(obs.Exemplar{Value: float64(devLat), Span: span, Tenant: name, At: doneAt})
		}
	}
}
