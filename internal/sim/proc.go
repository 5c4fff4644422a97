package sim

import "fmt"

// Proc is a cooperative simulation process: an ordinary goroutine that runs
// blocking-style code against virtual time. Exactly one of the loop or a
// single process executes at any moment; control transfers are explicit
// (Park/wake handshakes over unbuffered channels), so simulations remain
// deterministic while workload code stays straight-line Go.
//
// Processes are created with Loop.Spawn. All Proc methods must be called
// from the process's own goroutine; Wake must be called from loop context
// (an event callback) or from another running process.
type Proc struct {
	loop   *Loop
	name   string
	resume chan any
	yield  chan struct{}
	parked bool
	done   bool
	// wakeFn is the cached nil-valued wake callback, so Sleep schedules
	// without allocating a fresh closure per call.
	wakeFn func()
}

// Spawn creates a process and schedules it to start immediately (as an
// event at the current time). fn runs on its own goroutine under the
// cooperative handshake; when fn returns the process ends.
func (l *Loop) Spawn(name string, fn func(*Proc)) *Proc {
	p := &Proc{loop: l, name: name, resume: make(chan any), yield: make(chan struct{})}
	p.wakeFn = func() { p.wake(nil) }
	go func() {
		<-p.resume // wait for the start event
		fn(p)
		p.done = true
		p.yield <- struct{}{}
	}()
	p.parked = true
	l.After(0, p.wakeFn)
	return p
}

// Done reports whether the process function has returned.
func (p *Proc) Done() bool { return p.done }

// Now returns the current virtual time.
func (p *Proc) Now() int64 { return p.loop.Now() }

// Park suspends the process until Wake is called on it, returning the value
// passed to Wake.
func (p *Proc) Park() any {
	p.yield <- struct{}{}
	return <-p.resume
}

// wake transfers control to the parked process and blocks until it parks
// again or finishes. It must run in loop context or in another process.
func (p *Proc) wake(v any) {
	if !p.parked {
		panic(fmt.Sprintf("sim: wake of non-parked proc %q", p.name))
	}
	if p.done {
		panic(fmt.Sprintf("sim: wake of finished proc %q", p.name))
	}
	p.parked = false
	p.resume <- v
	<-p.yield
	p.parked = true
}

// Wake resumes a parked process, handing it v as the Park return value. The
// caller blocks until the process parks again or finishes.
func (p *Proc) Wake(v any) { p.wake(v) }

// Sleep suspends the process for d nanoseconds of virtual time.
func (p *Proc) Sleep(d int64) {
	p.loop.After(d, p.wakeFn)
	p.Park()
}

// Gate is a one-shot completion that processes can wait on. The zero value
// is an unfired gate.
type Gate struct {
	fired   bool
	val     any
	waiters []*Proc
}

// Wait parks p until the gate fires; if it already fired, it returns
// immediately. Returns the value passed to Fire.
func (g *Gate) Wait(p *Proc) any {
	if g.fired {
		return g.val
	}
	g.waiters = append(g.waiters, p)
	return p.Park()
}

// Fire releases all current and future waiters with value v. Must be called
// from loop context or from a running process. Firing twice panics.
func (g *Gate) Fire(v any) {
	if g.fired {
		panic("sim: Gate fired twice")
	}
	g.fired = true
	g.val = v
	ws := g.waiters
	g.waiters = nil
	for _, p := range ws {
		p.wake(v)
	}
}
