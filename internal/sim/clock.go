// Package sim provides the deterministic discrete-event simulation engine
// that underpins every experiment in this repository: a virtual clock, an
// arena-backed 4-ary-heap event queue with value-type timer handles, a
// cooperative process layer for writing blocking workload code, and a
// seeded random number generator.
//
// The same component code (SSD model, Gimbal pipeline, transports) also runs
// against the wall clock: Scheduler is an interface, and RealScheduler puts
// that same event queue behind a mutex and one runtime timer, so the
// TCP-based live target reuses the exact logic the simulator exercises and
// there is one Timer implementation for both.
package sim

// Scheduler is the clock abstraction shared by every timed component.
// Times are nanoseconds since an arbitrary epoch (simulation start).
//
// Both implementations run callbacks scheduled for the same instant in FIFO
// order of scheduling (a Reschedule counts as scheduling anew), which the
// deterministic experiments rely on.
//
// Every method, and every method of the Timers they return, is a call from
// the scheduler's context: an event callback or the code driving the Loop;
// on a RealScheduler, code that holds the shard lock — or set-up code
// building the shard before anything has entered it, since nothing scheduled
// on a RealScheduler runs before its first Lock.
type Scheduler interface {
	// Now returns the current time in nanoseconds since the epoch. It is
	// constant within one entry into the scheduler's context on both
	// implementations: one event on the Loop; one Lock, fired event or Tick
	// on a RealScheduler.
	Now() int64
	// At schedules fn to run at absolute time t (clamped to Now for past
	// times). It returns a value-type handle that can cancel the event or
	// move it to another time (Timer.Reschedule; an owner that will do so
	// routinely arms through AtMovable instead).
	At(t int64, fn func()) Timer
	// After schedules fn to run d nanoseconds from now.
	After(d int64, fn func()) Timer
}

// AtMovableFunc returns the function that arms, on s, a timer its owner will
// move with Timer.Reschedule: the scheduler's AtMovable where it has one
// (Loop and RealScheduler queue such a timer where a re-key is one sift and
// leaves nothing behind), s.At otherwise. What the clock observes is At
// either way, so a Scheduler that wraps another and knows only the three
// methods above stays correct and merely takes the slower path. An owner
// that arms per IO resolves this once, when it is built.
func AtMovableFunc(s Scheduler) func(t int64, fn func()) Timer {
	if m, ok := s.(interface {
		AtMovable(t int64, fn func()) Timer
	}); ok {
		return m.AtMovable
	}
	return s.At
}

// LaneFunc returns the scheduling function of a new FIFO lane on s, for an
// owner whose event times never decrease (a NAND die's program pipeline):
// the scheduler's NewLane where it has one (Loop and RealScheduler keep
// only a lane's earliest event on the heap every pop sifts through), a call
// to s.At otherwise. What the clock observes is At either way, and no Timer
// is returned. An owner resolves one lane per monotone stream when it is
// built.
func LaneFunc(s Scheduler) func(t int64, fn func()) {
	if m, ok := s.(interface {
		NewLane() func(t int64, fn func())
	}); ok {
		return m.NewLane()
	}
	return func(t int64, fn func()) { s.At(t, fn) }
}

// Common durations in nanoseconds, for readability at call sites.
const (
	Microsecond int64 = 1e3
	Millisecond int64 = 1e6
	Second      int64 = 1e9
)
