package fabric

import (
	"gimbal/internal/baseline/parda"
	"gimbal/internal/core/credit"
	"gimbal/internal/fault"
	"gimbal/internal/nvme"
	"gimbal/internal/sim"
)

// RetryPolicy is the initiator-side recovery contract: each attempt gets a
// deadline; an expired attempt is reissued after capped exponential
// backoff until the retry budget runs out, at which point the IO completes
// with StatusTimeout. Reissue is idempotent — each attempt travels as its
// own capsule and the first reply wins, so late or duplicate replies are
// counted and discarded rather than double-completing.
type RetryPolicy struct {
	// Timeout is the per-attempt deadline. 0 disables deadlines (and
	// therefore retries) while keeping the managed send path.
	Timeout int64
	// MaxRetries bounds reissues after the first attempt.
	MaxRetries int
	// Backoff is the delay before the first reissue; it doubles per
	// attempt, capped at BackoffCap.
	Backoff    int64
	BackoffCap int64
}

// DefaultRetryPolicy is what ArmLinkFaults arms and the facade's default:
// 3ms deadline, 5 retries, 250µs initial backoff capped at 4ms.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		Timeout:    3 * sim.Millisecond,
		MaxRetries: 5,
		Backoff:    250 * sim.Microsecond,
		BackoffCap: 4 * sim.Millisecond,
	}
}

// backoffDelay returns the wait before reissue number attempt (1-based
// count of attempts already made).
func (rp RetryPolicy) backoffDelay(attempt int) int64 {
	d := rp.Backoff
	if d <= 0 {
		return 0
	}
	for i := 1; i < attempt; i++ {
		d <<= 1
		if rp.BackoffCap > 0 && d >= rp.BackoffCap {
			return rp.BackoffCap
		}
	}
	if rp.BackoffCap > 0 && d > rp.BackoffCap {
		d = rp.BackoffCap
	}
	return d
}

// Gater is the client-side flow controller of a session: Gimbal's credit
// gate (*credit.Gate), PARDA's latency window (*parda.Window), or nothing.
type Gater interface {
	CanSubmit() bool
	OnSubmit()
	// OnCompletion observes the completion's piggybacked credit and the
	// end-to-end latency the client measured.
	OnCompletion(credit uint32, latency int64)
	// Headroom estimates how many more IOs the gate would admit — the load
	// signal the blobstore read balancer compares across replicas (§4.3).
	Headroom() int
}

// nopGater admits everything (ReFlex, FlashFQ, vanilla clients).
type nopGater struct{}

func (nopGater) CanSubmit() bool            { return true }
func (nopGater) OnSubmit()                  {}
func (nopGater) OnCompletion(uint32, int64) {}
func (nopGater) Headroom() int              { return 1 << 30 }

// NewGater returns the client-side controller matching the scheme.
func NewGater(s Scheme) Gater {
	switch s {
	case SchemeGimbal:
		return credit.NewGate(32)
	case SchemeParda:
		return parda.NewWindow(parda.DefaultConfig())
	default:
		return nopGater{}
	}
}

// Session is an initiator's connection to one SSD on one target over the
// loopback (simulated) transport: an RDMA qpair plus an NVMe qpair in the
// paper's terms. It implements workload.Target.
type Session struct {
	clk    sim.Scheduler
	target *Target
	rec    *tenantRec // the tenant's record on its SSD pipeline, from Register
	gate   Gater

	up   link // client → target (commands + write data)
	down link // target → client (completions + read data)

	pend []*nvme.IO // gated locally, §4.3's IO rate limiter behavior

	// retry, when set, switches Submit to the managed path: per-attempt
	// deadlines, bounded reissue, first-reply-wins dedup. lf, when set,
	// injects frame faults on both directions. Both nil (the default)
	// keeps the original single-closure send path untouched.
	retry  *RetryPolicy
	lf     *fault.LinkFaults
	closed bool

	// exFree recycles unmanaged-path exchange state (wire envelope plus
	// pre-bound callbacks); a session holds at most its flow-control
	// window's worth, so steady-state traffic allocates nothing.
	exFree []*exchange

	// Stats.
	Submitted   int64
	Completed   int64
	Errors      int64
	Retries     int64
	Timeouts    int64
	LateReplies int64
}

// exchange carries one unmanaged IO across the wire and back: the saved
// client callback and the completion held between target egress and client
// delivery. The IO's Origin stamp is its send time, the gate's latency
// signal. Its three
// callbacks are built once, when the node is first created, and rebound to
// successive IOs by assignment.
type exchange struct {
	s          *Session
	io         *nvme.IO
	clientDone func(*nvme.IO, nvme.Completion)
	cpl        nvme.Completion

	ingressFn func()
	devDoneFn func(*nvme.IO, nvme.Completion)
	deliverFn func()
}

// flight tracks one logical IO through the managed path across attempts.
type flight struct {
	io       *nvme.IO
	sendTime int64
	attempt  int
	timer    sim.Timer
	done     bool
}

// Connect registers the tenant on the target's SSD pipeline and returns a
// session using the scheme's client-side gate.
func (t *Target) Connect(tenant *nvme.Tenant, ssdIdx int) *Session {
	return t.ConnectWithGater(tenant, ssdIdx, NewGater(t.cfg.Scheme))
}

// ConnectWithGater is Connect with an explicit client-side controller
// (used by the Fig 13 flow-control ablation).
func (t *Target) ConnectWithGater(tenant *nvme.Tenant, ssdIdx int, g Gater) *Session {
	return &Session{
		// The session lives on its pipeline's scheduler: identical to the
		// target-wide clock in the simulator, the owning reactor's shard on
		// a sharded live target.
		clk:    t.pipes[ssdIdx].clk,
		target: t,
		rec:    t.Register(ssdIdx, tenant),
		gate:   g,
		up:     link{cfg: t.cfg.Net},
		down:   link{cfg: t.cfg.Net},
	}
}

// NopGater returns a pass-through controller (no flow control).
func NopGater() Gater { return nopGater{} }

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
	if s.closed {
		return
	}
	s.closed = true
	s.target.Disconnect(s.rec)
	pend := s.pend
	s.pend = nil
	for _, io := range pend {
		s.completeLocal(io, nvme.StatusAborted)
	}
}

// localAbortLatency models the initiator's error-handling path for IOs
// that never reach the wire. It must be non-zero: a closed-loop submitter
// that reissues on completion would otherwise spin the clock in place.
const localAbortLatency = 1 * sim.Microsecond

// completeLocal finishes an IO at the client without touching the wire,
// deferred so callers (worker completion handlers) never re-enter
// themselves and so abort storms still advance simulated time.
func (s *Session) completeLocal(io *nvme.IO, st nvme.Status) {
	s.clk.After(localAbortLatency, func() {
		io.Done(io, nvme.Completion{Status: st})
	})
}

// managed reports whether the session uses the recovery path.
func (s *Session) managed() bool { return s.retry != nil || s.lf != nil }

// Submit sends one IO to the remote SSD; io.Done fires at the client when
// the completion capsule arrives. IOs past the flow-control window queue
// locally (Algorithm 3's device-busy path).
func (s *Session) Submit(io *nvme.IO) {
	io.Tenant = s.rec.tenant
	if s.closed {
		s.completeLocal(io, nvme.StatusAborted)
		return
	}
	if !s.gate.CanSubmit() {
		s.pend = append(s.pend, io)
		return
	}
	if s.managed() {
		s.sendManaged(io)
		return
	}
	s.send(io)
}

func (s *Session) send(io *nvme.IO) {
	s.gate.OnSubmit()
	s.Submitted++
	ex := s.getExchange()
	ex.io = io
	io.Origin = s.clk.Now()
	ex.clientDone = io.Done
	io.Done = ex.devDoneFn

	// Client → target: command capsule, plus write data fetched by the
	// target via RDMA_READ (charged to the same direction).
	wbytes := 0
	if io.Op.IsWrite() {
		wbytes = io.Size
	}
	arriveAt := s.up.send(io.Origin, wbytes)
	s.clk.At(arriveAt, ex.ingressFn)
}

func (s *Session) getExchange() *exchange {
	if n := len(s.exFree); n > 0 {
		ex := s.exFree[n-1]
		s.exFree = s.exFree[:n-1]
		return ex
	}
	ex := &exchange{s: s}
	ex.ingressFn = func() { ex.s.target.Ingress(ex.s.rec, ex.io) }
	ex.devDoneFn = func(_ *nvme.IO, cpl nvme.Completion) { ex.onDeviceDone(cpl) }
	ex.deliverFn = func() { ex.deliver() }
	return ex
}

// onDeviceDone runs at target egress: charge the completion capsule (plus
// read data) to the down direction and schedule client delivery.
func (ex *exchange) onDeviceDone(cpl nvme.Completion) {
	s := ex.s
	rbytes := 0
	if ex.io.Op == nvme.OpRead && cpl.Status == nvme.StatusOK {
		rbytes = ex.io.Size
	}
	ex.cpl = cpl
	deliverAt := s.down.send(s.clk.Now(), rbytes)
	s.clk.At(deliverAt, ex.deliverFn)
}

// deliver completes the IO at the client: stats, the gate's latency/credit
// signal, callback restore, then a drain in case the gate opened. The
// exchange is recycled before the client callback runs so a closed-loop
// resubmission can take it straight back off the freelist.
func (ex *exchange) deliver() {
	s := ex.s
	s.Completed++
	if ex.cpl.Status != nvme.StatusOK {
		s.Errors++
	}
	s.gate.OnCompletion(ex.cpl.Credit, s.clk.Now()-ex.io.Origin)
	io, clientDone, cpl := ex.io, ex.clientDone, ex.cpl
	io.Done = clientDone
	ex.io, ex.clientDone = nil, nil
	s.exFree = append(s.exFree, ex)
	clientDone(io, cpl)
	s.drain()
}

// sendManaged starts a logical IO on the recovery path. The gate is
// charged once per logical IO regardless of how many attempts it takes;
// the flight resolves exactly once (first reply, retry exhaustion, or
// abort).
func (s *Session) sendManaged(io *nvme.IO) {
	s.gate.OnSubmit()
	s.Submitted++
	f := &flight{io: io, sendTime: s.clk.Now()}
	s.sendAttempt(f)
}

// sendAttempt issues one attempt: a fresh capsule IO (idempotent reissue —
// the previous attempt may still complete at the target) with its own
// completion route back to the flight, plus a deadline timer.
func (s *Session) sendAttempt(f *flight) {
	f.attempt++
	a := &nvme.IO{
		Op:       f.io.Op,
		Offset:   f.io.Offset,
		Size:     f.io.Size,
		Priority: f.io.Priority,
		Tenant:   f.io.Tenant,
		// Each attempt carries its own send time so the target-side trace
		// attributes only this attempt's wire time as fabric delay.
		Origin: s.clk.Now(),
	}
	a.Done = func(a *nvme.IO, cpl nvme.Completion) { s.onAttemptReply(f, a, cpl) }
	s.dispatch(a)
	if s.retry != nil && s.retry.Timeout > 0 {
		f.timer = s.clk.After(s.retry.Timeout, func() { s.onDeadline(f) })
	}
}

// dispatch puts one attempt capsule on the wire, applying frame faults.
func (s *Session) dispatch(a *nvme.IO) {
	if s.lf != nil && s.lf.DropFrame() {
		return // command capsule lost; the deadline recovers it
	}
	wbytes := 0
	if a.Op.IsWrite() {
		wbytes = a.Size
	}
	arriveAt := s.up.send(s.clk.Now(), wbytes)
	if s.lf != nil {
		arriveAt += s.lf.ExtraDelay()
	}
	s.clk.At(arriveAt, func() { s.target.Ingress(s.rec, a) })
	if s.lf != nil && s.lf.DuplicateFrame() {
		// A duplicated command frame is a second capsule for the same
		// attempt; it shares the attempt's completion route and the
		// flight's first-reply-wins dedup absorbs the extra reply.
		d := &nvme.IO{
			Op:       a.Op,
			Offset:   a.Offset,
			Size:     a.Size,
			Priority: a.Priority,
			Tenant:   a.Tenant,
			Origin:   a.Origin,
			Done:     a.Done,
		}
		dupAt := s.up.send(s.clk.Now(), wbytes) + s.lf.ExtraDelay()
		s.clk.At(dupAt, func() { s.target.Ingress(s.rec, d) })
	}
}

// onAttemptReply carries one attempt's completion capsule back to the
// client, applying frame faults on the down direction.
func (s *Session) onAttemptReply(f *flight, a *nvme.IO, cpl nvme.Completion) {
	if s.lf != nil && s.lf.DropFrame() {
		return // completion capsule lost; the deadline recovers it
	}
	rbytes := 0
	if a.Op == nvme.OpRead && cpl.Status == nvme.StatusOK {
		rbytes = a.Size
	}
	deliverAt := s.down.send(s.clk.Now(), rbytes)
	if s.lf != nil {
		deliverAt += s.lf.ExtraDelay()
	}
	s.clk.At(deliverAt, func() { s.deliver(f, cpl) })
}

// creditRefresher is implemented by gaters whose flow-control state can be
// refreshed from a reply that no longer completes an exchange.
type creditRefresher interface{ UpdateCredit(uint32) }

var _ creditRefresher = (*credit.Gate)(nil) // the Gimbal scheme's gate is one

// deliver resolves the flight with the first reply to arrive; later
// replies (duplicates, post-timeout stragglers) are counted and dropped.
func (s *Session) deliver(f *flight, cpl nvme.Completion) {
	if f.done {
		s.LateReplies++
		// The exchange is over but the capsule still carries the target's
		// current credit grant; apply it so a client riding out a storm of
		// timeouts converges on the degraded (clamped) credit instead of
		// submitting against a stale pre-fault grant.
		if cr, ok := s.gate.(creditRefresher); ok {
			cr.UpdateCredit(cpl.Credit)
		}
		return
	}
	f.done = true
	f.timer.Cancel()
	s.finish(f, cpl)
}

// finish completes the logical IO at the client: gate release, stats, the
// client callback, then a drain in case the gate opened.
func (s *Session) finish(f *flight, cpl nvme.Completion) {
	s.Completed++
	if cpl.Status != nvme.StatusOK {
		s.Errors++
	}
	s.gate.OnCompletion(cpl.Credit, s.clk.Now()-f.sendTime)
	f.io.Done(f.io, cpl)
	s.drain()
}

// onDeadline fires when an attempt's deadline expires without a reply:
// reissue after backoff while budget remains, otherwise complete with
// StatusTimeout (StatusAborted on a closed session).
func (s *Session) onDeadline(f *flight) {
	if f.done {
		return
	}
	s.Timeouts++
	if s.closed {
		f.done = true
		s.finish(f, nvme.Completion{Status: nvme.StatusAborted})
		return
	}
	if f.attempt > s.retry.MaxRetries {
		f.done = true
		s.finish(f, nvme.Completion{Status: nvme.StatusTimeout})
		return
	}
	s.Retries++
	delay := s.retry.backoffDelay(f.attempt)
	if delay <= 0 {
		s.sendAttempt(f)
		return
	}
	s.clk.After(delay, func() {
		if f.done {
			return
		}
		if s.closed {
			f.done = true
			s.finish(f, nvme.Completion{Status: nvme.StatusAborted})
			return
		}
		s.sendAttempt(f)
	})
}

// drain forwards locally queued IOs as the gate opens.
func (s *Session) drain() {
	for len(s.pend) > 0 && !s.closed && s.gate.CanSubmit() {
		io := s.pend[0]
		s.pend = s.pend[1:]
		if s.managed() {
			s.sendManaged(io)
		} else {
			s.send(io)
		}
	}
}
