package sim

import (
	"math"
	"sync"
	"time"
)

// RealScheduler implements Scheduler against the wall clock. It lets the
// simulation-grade components (SSD model, Gimbal pipeline) run behind the
// live TCP target. A shard is the simulator's own event queue — a Loop, so
// Timer has one implementation and same-instant callbacks keep FIFO order
// here too — behind a mutex and one runtime timer, the bell:
//
//   - Lock takes the mutex, samples the clock and fires everything due by
//     then, so a busy shard's owner (a reactor with commands to submit)
//     completes its own device IOs inside the Lock it was taking anyway,
//     the way an SPDK reactor polls its own timers.
//   - Unlock arms the bell for the queue's earliest deadline when that has
//     moved earlier, so an idle shard is woken by one runtime timer however
//     many events are pending. The bell's callback is Lock(); Unlock().
//
// Callbacks therefore run holding the lock, on whichever goroutine entered
// the shard, and components driven by a RealScheduler see the same
// single-threaded discipline they see under the event loop; use Lock/Unlock
// around external entry points into such components. At, After and every
// Timer method are shard-context calls: hold the lock — or be building the
// shard before anything has entered it, because nothing scheduled on a shard
// runs before its first Lock. That is what makes lock-free set-up
// single-threaded. Schedulers come in sets: NewRealShards(1).Shard(0) is the
// lone one.
//
// The shard clock is sampled once per entry — by Lock, before each further
// event one Lock fires, and by Tick — and Now returns that sample, so time
// stands still inside one entry exactly as it does inside one event of the
// loop (an SPDK reactor likewise reads the TSC once per iteration). A delay
// (After) is counted from the wall itself: a stale sample must not shorten
// it. Set-up code that runs before the first entry sees the wall too.
type RealScheduler struct {
	mu    sync.Mutex
	epoch time.Time
	// now is the current sample and reads counts the samples taken; both,
	// like every field below, are guarded by mu.
	now   int64
	reads int64
	q     Loop
	bell  *time.Timer
	// bellAt is the deadline the bell is armed for: noBell once an entry
	// has found it in the past (the ring is then under way or late, and
	// finds nothing left to do), and for good on a stopped shard.
	bellAt  int64
	stopped bool
	// rings counts bell callbacks, so tests can tell an idle shard's
	// wake-ups from its events.
	rings int64
}

const noBell = math.MaxInt64

// RealShards is a set of wall-clock scheduler shards sharing one epoch:
// the shared-nothing substrate of the live reactor datapath (DESIGN.md
// §4.1). Each reactor owns one shard; the components built against a
// shard (SSD model, switch pipeline) are serialized by that shard's lock
// only, so reactors never contend with each other on the per-IO path.
// Admin snapshots that must observe every pipeline at once take all shard
// locks through Lock/Unlock.
type RealShards struct {
	shards []*RealScheduler
}

// NewRealShards returns n wall-clock shards anchored at a common epoch,
// so Now() agrees (to clock-read skew) across shards.
func NewRealShards(n int) *RealShards {
	if n < 1 {
		n = 1
	}
	epoch := time.Now()
	s := &RealShards{shards: make([]*RealScheduler, n)}
	for i := range s.shards {
		s.shards[i] = &RealScheduler{epoch: epoch, bellAt: noBell}
	}
	return s
}

// N returns the shard count.
func (s *RealShards) N() int { return len(s.shards) }

// Shard returns shard i.
func (s *RealShards) Shard(i int) *RealScheduler { return s.shards[i] }

// Lock acquires every shard lock in ascending order (the only order any
// caller may use, so whole-target snapshots cannot deadlock against each
// other). Per-IO paths never call this; it exists for admin snapshots and
// shutdown.
func (s *RealShards) Lock() {
	for _, sh := range s.shards {
		sh.Lock()
	}
}

// Unlock releases every shard lock.
func (s *RealShards) Unlock() {
	for i := len(s.shards) - 1; i >= 0; i-- {
		s.shards[i].Unlock()
	}
}

// Now returns the common-epoch wall-clock time. It reads the wall, not a
// shard's sample, so it needs no lock and advances with none held.
func (s *RealShards) Now() int64 { return s.shards[0].wall() }

// Stop retires the set: every bell is stopped, every pending event is
// cancelled, and whatever is scheduled afterwards is dropped, so the shards
// hold no runtime timer and start no goroutine again. Call it once whatever
// was served from the shards has shut down; the caller holds no shard lock.
func (s *RealShards) Stop() {
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.stopped, sh.bellAt = true, noBell
		if sh.bell != nil {
			sh.bell.Stop()
		}
		sh.q.cancelAll()
		sh.mu.Unlock()
	}
}

// wall reads the wall clock: nanoseconds since the shared epoch.
func (s *RealScheduler) wall() int64 { return int64(time.Since(s.epoch)) }

// Lock serializes external entry into components driven by this scheduler,
// samples the shard clock for the entry and fires the events that are due.
// Each further event is its own entry with its own sample, taken before it
// runs; none is taken after the last, so a Lock that fires nothing, or one
// event, reads the clock once.
func (s *RealScheduler) Lock() {
	s.mu.Lock()
	s.Tick()
	if s.bellAt <= s.now {
		s.bellAt = noBell
	}
	for s.q.step(s.now) && s.q.NextEventTime() <= s.now {
		s.Tick()
	}
}

// Unlock releases the serialization lock, first making sure the bell rings
// by the queue's earliest deadline. A deadline that moved later (a cancel,
// a Reschedule) leaves the bell alone: it rings once at the old one, finds
// nothing due and is armed again from there.
func (s *RealScheduler) Unlock() {
	if next := s.q.NextEventTime(); next < s.bellAt {
		s.bellAt = next
		d := time.Duration(max(next-s.wall(), 0))
		if s.bell == nil {
			s.bell = time.AfterFunc(d, s.ring)
		} else {
			s.bell.Reset(d)
		}
	}
	s.mu.Unlock()
}

// ring is the bell's callback: an entry into the shard with nothing of its
// own to do.
func (s *RealScheduler) ring() {
	s.Lock()
	s.rings++
	s.Unlock()
}

// Tick samples the shard clock again; the caller holds the lock. A holder
// that runs several independent entries under one acquisition (a reactor
// submitting a batch of commands) calls it between them, so that each is
// stamped with its own time.
func (s *RealScheduler) Tick() {
	s.now = s.wall()
	s.reads++
}

// ClockReads returns how many times the shard clock has been sampled; the
// caller holds the lock.
func (s *RealScheduler) ClockReads() int64 { return s.reads }

// Pending returns the number of events scheduled on the shard that have
// neither fired nor been cancelled; the caller holds the lock.
func (s *RealScheduler) Pending() int { return s.q.Pending() }

// Now implements Scheduler: the sample taken on entry to the shard, constant
// until the next Lock, fired event or Tick. Read it holding the lock.
// Until something has entered the shard there is no sample to return, and
// Now reads the wall: components are built during set-up with no lock held,
// possibly seconds after the epoch (SSD pre-conditioning), and must not
// start their rate windows and token buckets from time 0.
func (s *RealScheduler) Now() int64 {
	if s.reads == 0 {
		return s.wall()
	}
	return s.now
}

// At implements Scheduler; a shard-context call. The callback runs holding
// the scheduler lock, no earlier than t by the wall clock.
func (s *RealScheduler) At(t int64, fn func()) Timer {
	if s.stopped {
		return Timer{}
	}
	return s.q.At(t, fn)
}

// AtMovable is At for a timer its owner will move (see Loop.AtMovable); a
// shard-context call.
func (s *RealScheduler) AtMovable(t int64, fn func()) Timer {
	if s.stopped {
		return Timer{}
	}
	return s.q.AtMovable(t, fn)
}

// NewLane returns the scheduling function of a new FIFO lane on the shard's
// queue (see Loop.NewLane). Building the lane and calling the function are
// shard-context calls; a call on a stopped shard is dropped.
func (s *RealScheduler) NewLane() func(t int64, fn func()) {
	lane := s.q.NewLane()
	return func(t int64, fn func()) {
		if !s.stopped {
			lane(t, fn)
		}
	}
}

// After implements Scheduler; a shard-context call.
func (s *RealScheduler) After(d int64, fn func()) Timer {
	return s.At(s.wall()+max(d, 0), fn)
}
