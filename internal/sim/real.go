package sim

import (
	"sync"
	"time"
)

// RealScheduler implements Scheduler against the wall clock using
// time.AfterFunc. It lets the simulation-grade components (SSD model,
// Gimbal pipeline) run behind the live TCP target. Callbacks fire on timer
// goroutines serialized by an internal mutex, so components driven by a
// RealScheduler see the same single-threaded discipline they see under the
// event loop; use Lock/Unlock around external entry points into such
// components. Schedulers come in sets: NewRealShards(1).Shard(0) is the
// lone one.
//
// The shard clock is sampled once per entry — by Lock, by the timer fire
// path once it holds the mutex, and by Tick — and Now returns that sample,
// so time stands still inside one entry exactly as it does inside one
// event of the loop (an SPDK reactor likewise reads the TSC once per
// iteration). Whatever turns a time into a wall-clock duration (At, After,
// Reschedule) reads the wall itself: a stale sample must not shorten a
// delay. Set-up code that runs before the first entry sees the wall too.
type RealScheduler struct {
	mu    sync.Mutex
	epoch time.Time
	// now is the current sample and reads counts the samples taken; both
	// are guarded by mu.
	now   int64
	reads int64
	// wakeups counts entries into the timer fire path, so tests can tell a
	// stopped timer from one that woke up to find itself cancelled.
	wakeups int64
}

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
		s.shards[i] = &RealScheduler{epoch: epoch}
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

// wall reads the wall clock: nanoseconds since the shared epoch.
func (s *RealScheduler) wall() int64 { return int64(time.Since(s.epoch)) }

// Lock serializes external entry into components driven by this scheduler
// and samples the shard clock for the entry.
func (s *RealScheduler) Lock() {
	s.mu.Lock()
	s.Tick()
}

// Unlock releases the serialization lock.
func (s *RealScheduler) Unlock() { s.mu.Unlock() }

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

// Now implements Scheduler: the sample taken on entry to the shard, constant
// until the next Lock, timer callback or Tick. Read it holding the lock.
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

// realEvent is the control block behind a wall-clock Timer. Unlike loop
// events it is heap-allocated per schedule — the real transport is not the
// simulation hot path. The firing callback checks fn under the scheduler
// lock, and callers cancel and reschedule from scheduler context, so every
// field is guarded by s.mu. gen advances on Reschedule so that the
// superseded handle goes stale, as it does on the loop.
type realEvent struct {
	s    *RealScheduler
	t    *time.Timer
	when int64
	fn   func()
	gen  uint32
}

// At implements Scheduler.
func (s *RealScheduler) At(t int64, fn func()) Timer {
	d := t - s.wall()
	if d < 0 {
		d = 0
	}
	return s.After(d, fn)
}

// After implements Scheduler. The callback runs holding the scheduler lock.
func (s *RealScheduler) After(d int64, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	e := &realEvent{s: s, when: s.wall() + d, fn: fn}
	e.t = time.AfterFunc(time.Duration(d), e.fire)
	return Timer{r: e}
}

// fire is the time.Timer callback. A wake-up that finds the event
// cancelled does nothing. One that arrives before the deadline was already
// waiting for the lock when Reschedule moved the event later: it arms the
// timer for the remainder (as that Reset already did, so this costs
// nothing and the event cannot be lost) and stands down.
func (e *realEvent) fire() {
	s := e.s
	s.Lock()
	defer s.Unlock()
	s.wakeups++
	if e.fn == nil {
		return
	}
	if early := e.when - s.now; early > 0 {
		e.t.Reset(time.Duration(early))
		return
	}
	f := e.fn
	e.fn = nil
	f()
}

// cancel is Timer.Cancel for a wall-clock event: it stops the runtime
// timer too, so a cancelled event costs no goroutine and no lock later.
func (e *realEvent) cancel(gen uint32) {
	if e.gen != gen || e.fn == nil {
		return
	}
	e.fn = nil
	e.t.Stop()
}

// reschedule is Timer.Reschedule for a wall-clock event: it returns the
// generation of the handle that names the event afterwards, which is gen
// itself when that handle was not pending.
func (e *realEvent) reschedule(gen uint32, when int64) uint32 {
	if e.gen != gen || e.fn == nil {
		return gen
	}
	now := e.s.wall()
	if when < now {
		when = now
	}
	e.when = when
	e.gen++
	e.t.Reset(time.Duration(when - now))
	return e.gen
}
