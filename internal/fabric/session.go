package fabric

import (
	"math"

	"gimbal/internal/fault"
	"gimbal/internal/nvme"
	"gimbal/internal/sim"
)

// Session is an initiator's connection to one SSD on one target over the
// loopback (simulated) transport: an RDMA qpair plus an NVMe qpair in the
// paper's terms. It is the initiator core plus the two link directions,
// and it implements workload.Target.
type Session struct {
	initiator[*nvme.IO]
	target *Target
	rec    *tenantRec // the tenant's record on its SSD pipeline, from Register

	up   link // client → target (commands + write data)
	down link // target → client (completions + read data)

	lf *fault.LinkFaults // frame faults on both directions, when set

	// exFree recycles exchanges: steady-state traffic allocates nothing.
	exFree []*exchange
}

// exchange carries one unmanaged IO (no retry policy, the default) across
// the wire and back, holding the client callback and the completion in
// between; its callbacks are built once per node. The IO's Origin is its
// send time. It fits one cache line: padded to two, it cost sim-frag-mixed
// 4% of host time.
type exchange struct {
	s          *Session
	io         *nvme.IO
	clientDone func(*nvme.IO, nvme.Completion)
	cpl        nvme.Completion

	ingressFn func()
	devDoneFn func(*nvme.IO, nvme.Completion)
	deliverFn func()
}

// Connect registers the tenant on the target's SSD pipeline and returns a
// session using the scheme's client-side gate.
func (t *Target) Connect(tenant *nvme.Tenant, ssdIdx int) *Session {
	return t.ConnectWithGater(tenant, ssdIdx, NewGater(t.cfg.Scheme))
}

// ConnectWithGater is Connect with an explicit client-side controller
// (used by the Fig 13 flow-control ablation).
func (t *Target) ConnectWithGater(tenant *nvme.Tenant, ssdIdx int, g Gater) *Session {
	s := &Session{
		target: t,
		rec:    t.Register(ssdIdx, tenant),
		up:     link{cfg: t.cfg.Net},
		down:   link{cfg: t.cfg.Net},
	}
	// The session lives on its pipeline's scheduler: identical to the
	// target-wide clock in the simulator, the owning reactor's shard on a
	// sharded live target.
	s.initiator = initiator[*nvme.IO]{clk: t.pipes[ssdIdx].clk, gate: g, tx: s, maxFlights: math.MaxInt64}
	return s
}

// Headroom exposes the gate's admission headroom (load balancing signal).
func (s *Session) Headroom() int { return s.gate.Headroom() }

// Pending returns the locally queued (gated) IO count.
func (s *Session) Pending() int { return len(s.pend) }

// SetRetryPolicy arms the managed send path with per-IO deadlines and
// bounded reissue. Call before traffic.
func (s *Session) SetRetryPolicy(rp RetryPolicy) { s.retry = &rp }

// RetryPolicy returns the armed policy, or nil.
func (s *Session) RetryPolicy() *RetryPolicy { return s.retry }

// ArmLinkFaults attaches frame-fault state to the session. A lossy link
// without retries would hang client queue slots forever, so arming faults
// also arms DefaultRetryPolicy unless a policy was set explicitly.
func (s *Session) ArmLinkFaults(lf *fault.LinkFaults) {
	if s.retry == nil {
		rp := DefaultRetryPolicy()
		s.retry = &rp
	}
	s.lf = lf
}

// LinkFaults returns the armed frame-fault state, or nil.
func (s *Session) LinkFaults() *fault.LinkFaults { return s.lf }

// ApplyFault engages (active) or reverts one fabric fault event on this
// session — the hook a fault.Engine's Fabric callback routes to. Frame
// faults arm LinkFaults on first use with a stream derived from seed and
// the event's session index, so the fault stream is deterministic
// regardless of event order; a disconnect is permanent.
func (s *Session) ApplyFault(ev fault.Event, active bool, seed uint64) {
	if ev.Kind == fault.FabricDisconnect {
		if active {
			s.Disconnect()
		}
		return
	}
	if s.lf == nil {
		s.ArmLinkFaults(fault.NewLinkFaults(seed ^ (uint64(ev.Session)+1)*0x9e3779b97f4a7c15))
	}
	var prob float64
	var delay, jitter int64
	if active {
		prob, delay, jitter = ev.Prob, ev.Extra, ev.Extra2
	}
	switch ev.Kind {
	case fault.FabricDrop:
		s.lf.SetDrop(prob)
	case fault.FabricDuplicate:
		s.lf.SetDuplicate(prob)
	case fault.FabricDelay:
		s.lf.SetDelay(delay)
		s.lf.SetJitter(jitter)
	}
}

// Closed reports whether the session has been disconnected.
func (s *Session) Closed() bool { return s.closed }

// Disconnect tears the session down: the target reclaims the tenant's
// scheduler state (vslot credits, DRR membership) and aborts its queued
// IOs; locally gated IOs complete with StatusAborted. In-flight attempts
// resolve through their deadlines or the target's abort path. Further
// Submits bounce immediately.
func (s *Session) Disconnect() {
	if !s.closed {
		s.target.Disconnect(s.rec)
		s.teardown()
	}
}

// localAbortLatency models the initiator's error-handling path for IOs
// that never reach the wire. It must be non-zero: a closed-loop submitter
// that reissues on completion would otherwise spin the clock in place.
const localAbortLatency = 1 * sim.Microsecond

// Submit sends one IO to the remote SSD; io.Done fires at the client when
// the completion capsule arrives.
func (s *Session) Submit(io *nvme.IO) {
	io.Tenant = s.rec.tenant
	s.submit(io)
}

// start puts an admitted IO on its way: as a flight when a retry policy is
// armed, else carried across the wire itself by a pooled exchange.
func (s *Session) start(io *nvme.IO) {
	if s.retry != nil {
		s.fly(&flight[*nvme.IO]{req: io})
		return
	}
	var ex *exchange
	if n := len(s.exFree); n > 0 {
		ex, s.exFree = s.exFree[n-1], s.exFree[:n-1]
	} else {
		ex = &exchange{s: s}
		ex.ingressFn = func() { ex.s.target.Ingress(ex.s.rec, ex.io) }
		ex.devDoneFn = func(_ *nvme.IO, cpl nvme.Completion) { ex.onDeviceDone(cpl) }
		ex.deliverFn = func() { ex.deliver() }
	}
	ex.io = io
	io.Origin = s.clk.Now()
	ex.clientDone = io.Done
	io.Done = ex.devDoneFn
	// Client → target: command capsule, plus write data fetched by the
	// target via RDMA_READ (charged to the same direction).
	s.clk.At(s.up.send(io.Origin, writeBytes(io)), ex.ingressFn)
}

// writeBytes is what a command capsule for io carries to the target.
func writeBytes(io *nvme.IO) int {
	if io.Op.IsWrite() {
		return io.Size
	}
	return 0
}

// readBytes is what a completion of io carries back to the client.
func readBytes(io *nvme.IO, cpl nvme.Completion) int {
	if io.Op == nvme.OpRead && cpl.Status == nvme.StatusOK {
		return io.Size
	}
	return 0
}

// onDeviceDone runs at target egress: charge the completion capsule (plus
// read data) to the down direction and schedule client delivery.
func (ex *exchange) onDeviceDone(cpl nvme.Completion) {
	s := ex.s
	ex.cpl = cpl
	s.clk.At(s.down.send(s.clk.Now(), readBytes(ex.io, cpl)), ex.deliverFn)
}

// deliver hands the completion to the initiator at the client, recycling
// the exchange first so a closed-loop resubmission takes it straight back.
func (ex *exchange) deliver() {
	s, io, cpl := ex.s, ex.io, ex.cpl
	io.Done = ex.clientDone
	ex.io, ex.clientDone = nil, nil
	s.exFree = append(s.exFree, ex)
	s.finish(io, cpl, s.clk.Now()-io.Origin)
}

// complete runs the client's callback, after localAbortLatency for an IO
// that never left: callers never re-enter themselves.
func (s *Session) complete(io *nvme.IO, cpl nvme.Completion, sent bool) {
	if !sent {
		s.clk.After(localAbortLatency, func() { io.Done(io, cpl) })
		return
	}
	io.Done(io, cpl)
}

// send puts one attempt of a flight on the wire: a fresh capsule
// (idempotent reissue: an earlier attempt may still complete) routed back
// to the flight.
func (s *Session) send(f *flight[*nvme.IO]) {
	io := f.req
	a := &nvme.IO{
		Op:       io.Op,
		Offset:   io.Offset,
		Size:     io.Size,
		Priority: io.Priority,
		Tenant:   io.Tenant,
		// Each attempt carries its own send time so the target-side trace
		// attributes only this attempt's wire time as fabric delay.
		Origin: s.clk.Now(),
	}
	a.Done = func(a *nvme.IO, cpl nvme.Completion) { s.onAttemptReply(f, a, cpl) }
	s.dispatch(a)
}

// dispatch puts one attempt capsule on the wire, applying frame faults.
func (s *Session) dispatch(a *nvme.IO) {
	if s.lf != nil && s.lf.DropFrame() {
		return // command capsule lost; the deadline recovers it
	}
	wbytes := writeBytes(a)
	arriveAt := s.up.send(s.clk.Now(), wbytes)
	if s.lf != nil {
		arriveAt += s.lf.ExtraDelay()
	}
	s.clk.At(arriveAt, func() { s.target.Ingress(s.rec, a) })
	if s.lf != nil && s.lf.DuplicateFrame() {
		// A duplicated command frame is a second capsule for the same
		// attempt; it shares the attempt's completion route and the
		// flight's first-reply-wins dedup absorbs the extra reply.
		d := *a // not yet at the target: nothing but the capsule's fields is set
		dupAt := s.up.send(s.clk.Now(), wbytes) + s.lf.ExtraDelay()
		s.clk.At(dupAt, func() { s.target.Ingress(s.rec, &d) })
	}
}

// onAttemptReply carries one attempt's completion capsule back to the
// client, applying frame faults on the down direction.
func (s *Session) onAttemptReply(f *flight[*nvme.IO], a *nvme.IO, cpl nvme.Completion) {
	if s.lf != nil && s.lf.DropFrame() {
		return // completion capsule lost; the deadline recovers it
	}
	deliverAt := s.down.send(s.clk.Now(), readBytes(a, cpl))
	if s.lf != nil {
		deliverAt += s.lf.ExtraDelay()
	}
	s.clk.At(deliverAt, func() { s.reply(f, cpl) })
}
