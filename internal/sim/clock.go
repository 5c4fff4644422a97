// Package sim provides the deterministic discrete-event simulation engine
// that underpins every experiment in this repository: a virtual clock, an
// arena-backed 4-ary-heap event queue with value-type timer handles, a
// cooperative process layer for writing blocking workload code, and a
// seeded random number generator.
//
// The same component code (SSD model, Gimbal pipeline, transports) also runs
// against the wall clock: Scheduler is an interface, and RealScheduler
// adapts time.AfterFunc so that the TCP-based live target reuses the exact
// logic the simulator exercises.
package sim

import "time"

// Scheduler is the clock abstraction shared by every timed component.
// Times are nanoseconds since an arbitrary epoch (simulation start).
//
// Implementations must run callbacks scheduled for the same instant in FIFO
// order of scheduling, which the deterministic experiments rely on.
type Scheduler interface {
	// Now returns the current time in nanoseconds since the epoch. It is
	// constant within one entry into the scheduler's context on both
	// implementations: one event on the Loop; one Lock, timer callback or
	// Tick on a RealScheduler.
	Now() int64
	// At schedules fn to run at absolute time t (clamped to Now for past
	// times). It returns a value-type handle that can cancel the event or
	// move it to another time (Timer.Reschedule).
	At(t int64, fn func()) Timer
	// After schedules fn to run d nanoseconds from now.
	After(d int64, fn func()) Timer
}

// Common durations in nanoseconds, for readability at call sites.
const (
	Microsecond int64 = 1e3
	Millisecond int64 = 1e6
	Second      int64 = 1e9
)

// Duration renders a nanosecond count using time.Duration formatting.
func Duration(ns int64) time.Duration { return time.Duration(ns) }
