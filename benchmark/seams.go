package main

import (
	"gimbal/internal/nvme"
	"gimbal/internal/obs"
	"gimbal/internal/sim"
	"gimbal/internal/ssd"
	"gimbal/internal/workload"
)

// tenantStats is the benchmark's own account of one tenant's IOs, kept at
// the client seam so it does not depend on any counter of the program.
type tenantStats struct {
	attempted int64
	completed int64 // status OK
	failed    int64 // refused, errored or aborted
	rdIOs     int64
	rdBytes   int64
	wrBytes   int64
}

// simTrace is the traced pass's shared state: the span recorder, the
// request id sequence, and the simulated-time residencies measured at the
// client seam.
type simTrace struct {
	rec   *recorder
	ioSeq int64
	wait  *fineHist // client submit → device submit (gate, wire, scheduler queue, pacing)
	ret   *fineHist // device done → client completion (egress, wire)
}

func newSimTrace() *simTrace {
	return &simTrace{rec: newRecorder(), wait: newFineHist(), ret: newFineHist()}
}

// clientSeam sits between one workload.Worker and its fabric.Session: the
// benchmark's client. It stamps each IO at submission, so latency is what
// the tenant sees (including time held by the client-side credit gate,
// which the worker's own histogram leaves out), and counts every outcome.
// With tr set it also opens the target span around Submit and the
// workload span around the completion callback.
type clientSeam struct {
	inner workload.Target
	loop  *sim.Loop
	st    *tenantStats
	rd    *fineHist // latency sinks; rigs share them across tenants
	wr    *fineHist
	tr    *simTrace
	free  []*clientIO
}

type clientIO struct {
	c    *clientSeam
	t0   int64
	id   int64
	orig func(*nvme.IO, nvme.Completion)
	fn   func(*nvme.IO, nvme.Completion)
}

// Submit implements workload.Target.
func (c *clientSeam) Submit(io *nvme.IO) {
	var x *clientIO
	if n := len(c.free); n > 0 {
		x = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		x = &clientIO{c: c}
		x.fn = x.done
	}
	c.st.attempted++
	x.t0 = c.loop.Now()
	x.orig = io.Done
	io.Done = x.fn
	if c.tr == nil {
		c.inner.Submit(io)
		return
	}
	c.tr.ioSeq++
	x.id = c.tr.ioSeq
	c.tr.rec.push(layerTarget, x.id)
	c.inner.Submit(io)
	c.tr.rec.pop()
}

func (x *clientIO) done(io *nvme.IO, cpl nvme.Completion) {
	c := x.c
	now := c.loop.Now()
	t0, id, orig := x.t0, x.id, x.orig
	x.orig = nil
	c.free = append(c.free, x)
	io.Done = orig
	if cpl.Status == nvme.StatusOK {
		c.st.completed++
		if io.Op.IsWrite() {
			c.st.wrBytes += int64(io.Size)
			c.wr.record(now - t0)
		} else {
			c.st.rdIOs++
			c.st.rdBytes += int64(io.Size)
			c.rd.record(now - t0)
		}
	} else {
		c.st.failed++
	}
	if c.tr == nil {
		orig(io, cpl)
		return
	}
	if cpl.Status == nvme.StatusOK {
		c.tr.wait.record(io.DevSubmit - t0)
		c.tr.ret.record(now - io.DevDone)
	}
	c.tr.rec.push(layerWorkload, id)
	orig(io, cpl)
	c.tr.rec.pop()
}

// devSeam wraps an ssd.Device boundary in the traced pass: the inner
// layer's span around Submit, the outer layer's span around the completion
// callback, and the simulated residency (submit → done) of every request.
type devSeam struct {
	inner ssd.Device
	loop  *sim.Loop
	rec   *recorder
	in    layer // module below the seam
	out   layer // module above it, which owns the Done callback

	rd, wr  *fineHist // simulated residency by op
	fastHit *fineHist // reads a fast tier below the seam served
	free    []*devIO
}

type devIO struct {
	d    *devSeam
	t0   int64
	orig func(*ssd.Request)
	fn   func(*ssd.Request)
}

func newDevSeam(loop *sim.Loop, rec *recorder, inner ssd.Device, in, out layer) *devSeam {
	return &devSeam{inner: inner, loop: loop, rec: rec, in: in, out: out,
		rd: newFineHist(), wr: newFineHist(), fastHit: newFineHist()}
}

// Inner lets tier.New and the AttachObs walks unwrap the chain as they
// unwrap a fault.Device.
func (d *devSeam) Inner() ssd.Device { return d.inner }

// Capacity implements ssd.Device.
func (d *devSeam) Capacity() int64 { return d.inner.Capacity() }

// AttachObs forwards to the first device below that exports telemetry, as
// fabric.Target and tier.Device do when they meet a fault wrapper.
func (d *devSeam) AttachObs(reg *obs.Registry, ssdIdx int) {
	for dev := d.inner; ; {
		if a, ok := dev.(interface{ AttachObs(*obs.Registry, int) }); ok {
			a.AttachObs(reg, ssdIdx)
			return
		}
		u, ok := dev.(interface{ Inner() ssd.Device })
		if !ok {
			return
		}
		dev = u.Inner()
	}
}

// Submit implements ssd.Device.
func (d *devSeam) Submit(r *ssd.Request) {
	var x *devIO
	if n := len(d.free); n > 0 {
		x = d.free[n-1]
		d.free = d.free[:n-1]
	} else {
		x = &devIO{d: d}
		x.fn = x.done
	}
	x.t0 = d.loop.Now()
	x.orig = r.Done
	r.Done = x.fn
	d.rec.push(d.in, 0)
	d.inner.Submit(r)
	d.rec.pop()
}

func (x *devIO) done(r *ssd.Request) {
	d := x.d
	lat := d.loop.Now() - x.t0
	orig := x.orig
	x.orig = nil
	d.free = append(d.free, x)
	r.Done = orig
	switch r.Kind {
	case ssd.OpRead:
		d.rd.record(lat)
		if r.FastTier {
			d.fastHit.record(lat)
		}
	case ssd.OpWrite:
		d.wr.record(lat)
	}
	d.rec.push(d.out, 0)
	orig(r)
	d.rec.pop()
}
