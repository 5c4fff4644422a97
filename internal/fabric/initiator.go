package fabric

import (
	"gimbal/internal/baseline/parda"
	"gimbal/internal/core/credit"
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

// maxBackoff bounds every backoff delay, capped or not: 2^62 ns is 146
// years, so a clock short of that age adds it to its now without wrapping.
const maxBackoff = int64(1) << 62

// backoffDelay returns the wait before reissue number attempt (1-based
// count of attempts already made): Backoff doubled per earlier attempt,
// saturating at BackoffCap (none when zero) and at maxBackoff.
func (rp RetryPolicy) backoffDelay(attempt int) int64 {
	d := rp.Backoff
	if d <= 0 {
		return 0
	}
	ceil := maxBackoff
	if rp.BackoffCap > 0 && rp.BackoffCap < ceil {
		ceil = rp.BackoffCap
	}
	for i := 1; i < attempt && d < ceil; i++ {
		d <<= 1 // d < ceil <= 2^62, so this cannot wrap
	}
	return min(d, ceil)
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

// NopGater returns a pass-through controller (no flow control).
func NopGater() Gater { return nopGater{} }

// creditRefresher is implemented by gaters whose flow-control state can be
// refreshed from a reply that no longer completes an exchange.
type creditRefresher interface{ UpdateCredit(uint32) }

var _ creditRefresher = (*credit.Gate)(nil) // the Gimbal scheme's gate is one

// initiator is the client-side state machine of both planes (Algorithm 3's
// credit gate, §4.3's IO rate limiter): the Gater, a FIFO of the IOs it
// holds back, the counters, and each logical IO's flight up to its one
// completion, run on a Session's scheduler or a TCPClient's own shard.
type initiator[R any] struct {
	clk        sim.Scheduler
	gate       Gater
	retry      *RetryPolicy // nil: no deadlines, and a Session's unmanaged path
	tx         transport[R]
	maxFlights int64 // past it (a TCPClient's 65,536 ids) IOs wait in pend

	pend   []R
	closed bool

	// Stats.
	Submitted   int64
	Completed   int64
	Errors      int64
	Retries     int64
	Timeouts    int64
	LateReplies int64
}

// transport is a plane's side of the initiator; R is its record of one
// logical IO. It hands back every reply to a flight (reply).
type transport[R any] interface {
	start(r R)         // as a flight (fly), or as an exchange ended by finish
	send(f *flight[R]) // put attempt f.attempt on the wire
	// complete runs the client's one callback; an IO that never left
	// completes StatusAborted.
	complete(r R, cpl nvme.Completion, sent bool)
}

// flight is one logical IO from admission to its one completion.
type flight[R any] struct {
	req      R
	sendTime int64 // admission: the start of the latency the gate is shown
	attempt  int   // attempts sent
	timer    sim.Timer
	done     bool
}

// admits reports whether the next IO may leave now.
func (c *initiator[R]) admits() bool {
	return c.gate.CanSubmit() && c.Submitted-c.Completed < c.maxFlights
}

// submit takes one logical IO from the client; past the flow-control
// window it waits in pend (Algorithm 3's device-busy path).
func (c *initiator[R]) submit(r R) {
	if c.closed {
		c.tx.complete(r, nvme.Completion{Status: nvme.StatusAborted}, false)
		return
	}
	if !c.admits() {
		c.pend = append(c.pend, r)
		return
	}
	c.start(r)
}

// start admits a logical IO: the gate is charged once, whatever it takes.
func (c *initiator[R]) start(r R) {
	c.gate.OnSubmit()
	c.Submitted++
	c.tx.start(r)
}

// fly sends a flight's first attempt; its latency runs from now.
func (c *initiator[R]) fly(f *flight[R]) {
	f.sendTime = c.clk.Now()
	c.sendAttempt(f)
}

// sendAttempt issues one attempt, plus its deadline when one is armed.
func (c *initiator[R]) sendAttempt(f *flight[R]) {
	f.attempt++
	c.tx.send(f)
	if c.retry != nil && c.retry.Timeout > 0 {
		f.timer = c.clk.After(c.retry.Timeout, func() { c.onDeadline(f) })
	}
}

// reply resolves f with the first reply to arrive. A later one (or one
// the plane cannot place: f nil) is counted and dropped, but its credit
// still refreshes the gate, so a client riding out a storm of timeouts
// converges on a degraded target's clamped credit.
func (c *initiator[R]) reply(f *flight[R], cpl nvme.Completion) {
	if f == nil || f.done {
		c.LateReplies++
		if cr, ok := c.gate.(creditRefresher); ok {
			cr.UpdateCredit(cpl.Credit)
		}
		return
	}
	c.end(f, cpl)
}

// end completes f with cpl unless something already has.
func (c *initiator[R]) end(f *flight[R], cpl nvme.Completion) {
	if f.done {
		return
	}
	f.done = true
	f.timer.Cancel()
	c.finish(f.req, cpl, c.clk.Now()-f.sendTime)
}

// finish completes a logical IO that took lat: gate release, stats, the
// client callback, then a drain in case the gate opened.
func (c *initiator[R]) finish(r R, cpl nvme.Completion, lat int64) {
	c.Completed++
	if cpl.Status != nvme.StatusOK {
		c.Errors++
	}
	c.gate.OnCompletion(cpl.Credit, lat)
	c.tx.complete(r, cpl, true)
	c.drain()
}

// onDeadline fires when an attempt's deadline expires without a reply:
// reissue after backoff while budget remains, otherwise complete with
// StatusTimeout (StatusAborted once torn down).
func (c *initiator[R]) onDeadline(f *flight[R]) {
	if f.done {
		return
	}
	c.Timeouts++
	switch delay := c.retry.backoffDelay(f.attempt); {
	case c.closed:
		c.end(f, nvme.Completion{Status: nvme.StatusAborted})
	case f.attempt > c.retry.MaxRetries:
		c.end(f, nvme.Completion{Status: nvme.StatusTimeout})
	case delay <= 0:
		c.Retries++
		c.sendAttempt(f)
	default:
		c.Retries++
		c.clk.After(delay, func() {
			if c.closed {
				c.end(f, nvme.Completion{Status: nvme.StatusAborted})
			} else if !f.done {
				c.sendAttempt(f)
			}
		})
	}
}

// drain forwards held IOs as the gate opens.
func (c *initiator[R]) drain() {
	for len(c.pend) > 0 && !c.closed && c.admits() {
		r := c.pend[0]
		c.pend = c.pend[1:]
		c.start(r)
	}
}

// teardown closes the initiator: held and later IOs complete
// StatusAborted, and flights end by reply, deadline or the plane.
func (c *initiator[R]) teardown() {
	c.closed = true
	pend := c.pend
	c.pend = nil
	for _, r := range pend {
		c.tx.complete(r, nvme.Completion{Status: nvme.StatusAborted}, false)
	}
}
