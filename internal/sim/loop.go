package sim

import (
	"fmt"
	"math"
)

// Event is one slot of the loop's event arena: the scheduled time, the
// callback, and a generation counter that invalidates stale Timer handles
// when the slot is recycled. The FIFO tie-break sequence lives in the heap
// entry (see heapEnt). Events are stored by value in a slab ([]Event) and
// addressed by index, so scheduling allocates nothing once the arena has
// warmed up.
type Event struct {
	when int64
	fn   func()
	gen  uint32
	// side is 1 + the event's position in Loop.side for an event queued on
	// the side heap (born there by AtMovable, or moved there by its first
	// Timer.Reschedule), 0 for an event queued on the main heap.
	side int32
	// lane is 1 + the index of the FIFO lane the event was scheduled on
	// (NewLane), 0 for an event scheduled any other way.
	lane   int32
	daemon bool
}

// Timer is a value-type handle to a scheduled event. The zero Timer is
// inert: Cancel is a no-op and Cancelled reports true. Handles stay valid
// after the event fires, is cancelled or is moved by Reschedule — the
// generation counter makes operations on a recycled slot no-ops — so
// callers may keep a Timer around without lifetime bookkeeping.
type Timer struct {
	l   *Loop
	idx int32
	gen uint32
}

// event returns the arena slot the handle names while the event is still
// pending, nil once it has fired, been cancelled or superseded, and for the
// zero handle.
func (t Timer) event() *Event {
	if t.l == nil {
		return nil
	}
	if e := &t.l.arena[t.idx]; e.gen == t.gen && e.fn != nil {
		return e
	}
	return nil
}

// Cancelled reports whether the event already fired, was cancelled, or the
// handle is zero.
func (t Timer) Cancelled() bool { return !t.Active() }

// Active reports whether the event is still scheduled to fire.
func (t Timer) Active() bool { return t.event() != nil }

// Cancel removes the event from its loop's queue. Safe to call twice; safe
// on fired events and on the zero Timer. A main-heap entry is dropped
// lazily: the callback is cleared immediately and the heap slot is
// reclaimed when it surfaces (or by compaction when cancelled entries pile
// up). A side-heap timer (AtMovable, or re-keyed once) leaves at once.
func (t Timer) Cancel() {
	e := t.event()
	if e == nil {
		return
	}
	l := t.l
	if !e.daemon {
		l.foreground--
	}
	l.live--
	if e.side != 0 {
		l.sideRemove(int(e.side - 1))
		l.freeSlot(t.idx)
		return
	}
	e.fn = nil
	l.lazyCancelled++
	l.maybeCompact()
}

// Reschedule moves a pending event to fire at absolute time when (clamped
// to Now for past times) and returns its new handle; the receiver goes
// stale, like the handle of a fired timer. What the simulation observes is
// exactly Cancel followed by At(when, fn) with the same callback and daemon
// flag — the event takes a fresh FIFO sequence number, so it fires after
// everything already scheduled for that instant — but the loop pays one key
// update in place of a dead heap entry, an arena slot and a push. On a
// handle that is not pending (zero, fired, cancelled or superseded) it does
// nothing and returns the receiver.
//
// An event armed with AtMovable is already on the loop's side heap, which
// is indexed, and every Reschedule re-keys it in place. One armed with At
// is on the main heap: its first Reschedule leaves that entry behind as a
// tombstone and moves the event — a second arena slot, a side-heap insert,
// and later a pop to bury the tombstone — and only the ones after that are
// in place. An owner that knows it will re-key arms with AtMovable.
func (t Timer) Reschedule(when int64) Timer {
	e := t.event()
	if e == nil {
		return t
	}
	l := t.l
	if when < l.now {
		when = l.now
	}
	l.seq++
	ent := heapEnt{when: when, idx: t.idx, seq: uint32(l.seq)}
	if e.side != 0 {
		e.when = when
		e.gen++
		l.sideFix(int(e.side-1), ent)
		return Timer{l: l, idx: t.idx, gen: e.gen}
	}
	fn, daemon := e.fn, e.daemon
	e.fn = nil // the main-heap entry stays behind as a tombstone, once
	l.lazyCancelled++
	ent.idx = l.allocSlot()
	e = &l.arena[ent.idx]
	e.when, e.fn, e.daemon = when, fn, daemon
	l.sidePush(ent)
	l.maybeCompact()
	return Timer{l: l, idx: ent.idx, gen: e.gen}
}

// MarkDaemon excludes the event from Run's liveness accounting: like a
// daemon thread, a pending daemon event does not keep the simulation
// running. Self-rescheduling housekeeping timers (write-cost ticks,
// stats samplers) mark themselves daemon so Run terminates when real work
// drains. It returns the same handle for chaining.
func (t Timer) MarkDaemon() Timer {
	if e := t.event(); e != nil && !e.daemon {
		e.daemon = true
		t.l.foreground--
	}
	return t
}

// When returns the scheduled firing time, or 0 if the event is not pending
// (fired, cancelled, superseded by Reschedule, or the zero handle).
func (t Timer) When() int64 {
	if e := t.event(); e != nil {
		return e.when
	}
	return 0
}

// heapEnt is one min-heap entry: the arena index plus copies of the
// event's firing time and (truncated) sequence number, so sift comparisons
// read only the cache-friendly heap array and never chase arena slots. The
// seq truncation is compared by wrap-around-safe signed difference, which
// preserves FIFO order among equal-time events unless more than 2^31
// schedules separate two entries with the same timestamp — vacuous for the
// simulations here. The struct packs into the 16 bytes the padded
// (int64, int32) pair would occupy anyway.
type heapEnt struct {
	when int64
	idx  int32
	seq  uint32
}

// entLess orders heap entries by (when, seq): earliest first, FIFO among
// equal times.
func entLess(a, b heapEnt) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return int32(a.seq-b.seq) < 0
}

// Loop is a single-threaded discrete-event simulation loop with a virtual
// clock. It is not safe for concurrent use except through the process layer
// (see proc.go), which serializes all execution.
//
// The queue is a hand-rolled 4-ary min-heap of (when, arena index) entries
// ordered by (when, seq): compared to container/heap this removes the
// interface dispatch and `any` boxing from the hot path, and the flatter
// tree halves the sift-down depth for the queue sizes the experiments
// produce. Fired and cancelled slots return to a LIFO free list, so a
// self-rescheduling timer reuses the slot it just vacated (hot in cache)
// and steady-state scheduling performs zero allocations.
//
// Timers that are re-keyed while pending (Timer.Reschedule: the rate
// pacers) live in a second, indexed binary heap: each of its events knows
// its position, so a re-key or cancel is a sift and never leaves a
// tombstone, and a fire is a removal. It holds one entry per such timer — a
// handful — while the main heap stays unindexed, because writing a position
// on every sift swap slows the one-shot events that are nearly all of the
// traffic. The loop fires whichever root is earlier by (when, seq), so which
// heap an event waits on is invisible to the simulation.
//
// Where an event is born: At and After put it on the main heap; AtMovable
// puts it on the side heap, for owners that will move it (a pacing timer is
// armed once per admitted IO and re-keyed by every stalled pass after, so
// born on the main heap it would cost a push, a tombstone and a burial pop
// per cycle). A main-heap event that is rescheduled after all still moves
// across on its first Reschedule: that path stays for schedulers reached
// through a wrapper that only knows At (see the package-level AtMovable).
//
// An owner whose event times never decrease (a NAND die's program
// pipeline) schedules through a FIFO lane (NewLane): only the lane's
// earliest pending event is on the main heap, the rest wait in the lane's
// backlog, and each one that fires puts the next on the heap with the key
// that one was given when it was scheduled. The firing order is the one At
// would give; the heap every pop sifts through is smaller by the backlogs.
type Loop struct {
	now   int64
	seq   uint64
	arena []Event   // slab of event slots, addressed by heap/free indices
	heap  []heapEnt // 4-ary min-heap keyed by (when, arena seq)
	side  []heapEnt // indexed binary min-heap of re-keyed timers, same key
	free  []int32   // LIFO free list of arena slots
	lanes []lane
	// backlog counts lane events waiting off the main heap, in all lanes.
	backlog int
	// foreground counts pending non-daemon events; Run stops when it
	// reaches zero even if daemon timers remain queued.
	foreground int
	// live counts queued non-cancelled events (foreground + daemon).
	live int
	// lazyCancelled counts cancelled entries still occupying heap slots.
	lazyCancelled int
	running       bool
}

// NewLoop returns a loop with the clock at zero.
func NewLoop() *Loop { return &Loop{} }

// Now implements Scheduler.
func (l *Loop) Now() int64 { return l.now }

// push appends an entry and restores the heap property by sifting up.
func (l *Loop) push(e heapEnt) {
	h := append(l.heap, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !entLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	l.heap = h
}

// siftDown restores the heap property from position i toward the leaves.
func (l *Loop) siftDown(i int) {
	h := l.heap
	n := len(h)
	for {
		first := i<<2 + 1 // leftmost child
		if first >= n {
			return
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if entLess(h[c], h[min]) {
				min = c
			}
		}
		if !entLess(h[min], h[i]) {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// popMin removes and returns the root of the heap.
func (l *Loop) popMin() int32 {
	h := l.heap
	top := h[0].idx
	n := len(h) - 1
	h[0] = h[n]
	l.heap = h[:n]
	if n > 0 {
		l.siftDown(0)
	}
	return top
}

// sideFix writes ent at position i of the side heap and sifts it to where
// it belongs, keeping the back-index of every event it moves current.
func (l *Loop) sideFix(i int, ent heapEnt) {
	s := l.side
	for i > 0 {
		parent := (i - 1) >> 1
		if !entLess(ent, s[parent]) {
			break
		}
		s[i] = s[parent]
		l.arena[s[i].idx].side = int32(i + 1)
		i = parent
	}
	for {
		c := i<<1 + 1
		if c >= len(s) {
			break
		}
		if c+1 < len(s) && entLess(s[c+1], s[c]) {
			c++
		}
		if !entLess(s[c], ent) {
			break
		}
		s[i] = s[c]
		l.arena[s[i].idx].side = int32(i + 1)
		i = c
	}
	s[i] = ent
	l.arena[ent.idx].side = int32(i + 1)
}

// sidePush adds ent to the side heap.
func (l *Loop) sidePush(ent heapEnt) {
	l.side = append(l.side, ent)
	l.sideFix(len(l.side)-1, ent)
}

// sideRemove takes the entry at position i out of the side heap and clears
// its event's back-index.
func (l *Loop) sideRemove(i int) {
	s := l.side
	l.arena[s[i].idx].side = 0
	n := len(s) - 1
	last := s[n]
	l.side = s[:n]
	if i < n {
		l.sideFix(i, last)
	}
}

// allocSlot takes an arena slot off the free list, growing the arena when
// the list is empty.
func (l *Loop) allocSlot() int32 {
	if n := len(l.free); n > 0 {
		idx := l.free[n-1]
		l.free = l.free[:n-1]
		return idx
	}
	l.arena = append(l.arena, Event{})
	return int32(len(l.arena) - 1)
}

// freeSlot recycles an arena slot: the generation bump invalidates any
// outstanding Timer handles, and the LIFO free list hands the slot to the
// very next At — the fast path for self-rescheduling timers, which fire,
// free their slot, and immediately re-arm into it.
func (l *Loop) freeSlot(idx int32) {
	e := &l.arena[idx]
	e.fn, e.lane = nil, 0
	e.gen++
	l.free = append(l.free, idx)
}

// maybeCompact rebuilds the heap without its cancelled entries once they
// outnumber the live ones (and are numerous enough to matter), so churny
// timers — e.g. per-IO deadlines cancelled when the completion arrives
// first — cannot bloat the queue behind long-lived daemon events. Lane
// backlogs count as queued, so compaction runs when it would with every
// lane event on the heap.
func (l *Loop) maybeCompact() {
	if l.lazyCancelled < 64 || l.lazyCancelled*2 <= len(l.heap)+l.backlog {
		return
	}
	keep := l.heap[:0]
	for _, e := range l.heap {
		if l.arena[e.idx].fn != nil {
			keep = append(keep, e)
		} else {
			l.freeSlot(e.idx)
		}
	}
	l.heap = keep
	l.lazyCancelled = 0
	for i := (len(keep) - 2) >> 2; i >= 0; i-- {
		l.siftDown(i)
	}
}

// newEvent is what At, AtMovable and a lane share — everything the clock can
// observe of a new foreground event: the clamp to Now, the FIFO sequence
// number, the arena slot and the liveness counts. The caller queues the
// entry it returns.
func (l *Loop) newEvent(t int64, fn func()) (heapEnt, Timer) {
	if fn == nil {
		panic("sim: At with nil callback")
	}
	if t < l.now {
		t = l.now
	}
	l.seq++
	idx := l.allocSlot()
	e := &l.arena[idx]
	e.when, e.fn, e.daemon = t, fn, false
	l.foreground++
	l.live++
	return heapEnt{when: t, idx: idx, seq: uint32(l.seq)}, Timer{l: l, idx: idx, gen: e.gen}
}

// At implements Scheduler.
func (l *Loop) At(t int64, fn func()) Timer {
	ent, h := l.newEvent(t, fn)
	l.push(ent)
	return h
}

// AtMovable is At for a timer its owner will move with Timer.Reschedule:
// the same event at the same place in the firing order, queued on the
// indexed side heap from birth, so that every Reschedule re-keys it in
// place, Cancel removes it at once, and neither it nor its firing touches
// the main heap.
func (l *Loop) AtMovable(t int64, fn func()) Timer {
	ent, h := l.newEvent(t, fn)
	l.sidePush(ent)
	return h
}

// lane is one FIFO lane: its earliest pending event is on the main heap
// (armed), and the later ones wait in q[head:] with the heap entries they
// were given when scheduled.
type lane struct {
	q     []heapEnt
	head  int
	last  int64 // the latest time scheduled on the lane
	armed bool
}

// next takes the lane's earliest backlog entry. The backlog is consumed
// from head and slid back to the front of q once head reaches the middle,
// so a lane that never drains keeps one backing array of a few times its
// deepest backlog.
func (ln *lane) next() heapEnt {
	ent := ln.q[ln.head]
	ln.head++
	if ln.head*2 >= len(ln.q) {
		ln.q = ln.q[:copy(ln.q, ln.q[ln.head:])]
		ln.head = 0
	}
	return ent
}

// NewLane returns the scheduling function of a new FIFO lane: At for an
// owner whose event times never decrease, with everything the clock
// observes unchanged — the clamp to Now, one sequence number at call time,
// the foreground/live accounting and the nil-callback panic — and the
// firing order exactly the one At would give. It returns no Timer, so a
// lane event cannot be cancelled, moved or marked daemon. A call whose time,
// clamped to Now, is earlier than the lane's previous one panics.
func (l *Loop) NewLane() func(t int64, fn func()) {
	i := int32(len(l.lanes))
	l.lanes = append(l.lanes, lane{})
	return func(t int64, fn func()) { l.laneAt(i, t, fn) }
}

// laneAt schedules fn at t on lane i: on the main heap if the lane has no
// event there, in its backlog otherwise.
func (l *Loop) laneAt(i int32, t int64, fn func()) {
	ln := &l.lanes[i]
	if max(t, l.now) < ln.last {
		panic(fmt.Sprintf("sim: lane event at %d before the lane's previous one at %d", t, ln.last))
	}
	ent, _ := l.newEvent(t, fn)
	l.arena[ent.idx].lane = i + 1
	ln.last = ent.when
	if !ln.armed {
		ln.armed = true
		l.push(ent)
		return
	}
	ln.q = append(ln.q, ent)
	l.backlog++
}

// laneFired moves lane i's next event, keyed as it was when scheduled, onto
// the main heap once the lane's earliest has fired.
func (l *Loop) laneFired(i int32) {
	ln := &l.lanes[i]
	if ln.head == len(ln.q) {
		ln.armed = false
		return
	}
	l.push(ln.next())
	l.backlog--
}

// cancelAll cancels every pending event (RealShards.Stop). The lane
// backlogs are emptied first, since no Timer names their events; each
// lane's earliest event is then cancelled on the main heap with the rest.
func (l *Loop) cancelAll() {
	for i := range l.lanes {
		ln := &l.lanes[i]
		for _, ent := range ln.q[ln.head:] {
			l.foreground--
			l.live--
			l.freeSlot(ent.idx)
		}
		ln.q, ln.head, ln.armed = ln.q[:0], 0, false
	}
	l.backlog = 0
	for i := range l.arena {
		Timer{l: l, idx: int32(i), gen: l.arena[i].gen}.Cancel()
	}
}

// After implements Scheduler.
func (l *Loop) After(d int64, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return l.At(l.now+d, fn)
}

// Pending returns the number of scheduled events that have not fired and
// have not been cancelled (foreground plus daemon). Cancelled events that
// still occupy heap slots awaiting lazy reclamation are not counted; use
// Queued for the raw queue length.
func (l *Loop) Pending() int { return l.live }

// Live returns the number of pending foreground (non-daemon) events — the
// count that keeps Run alive.
func (l *Loop) Live() int { return l.foreground }

// Queued returns the raw event-queue length, lane backlogs included, and
// cancelled entries that have not yet been compacted away or popped.
func (l *Loop) Queued() int { return len(l.heap) + len(l.side) + l.backlog }

// dropCancelledRoots pops cancelled entries off the root of the main heap
// and recycles their slots.
func (l *Loop) dropCancelledRoots() {
	for len(l.heap) > 0 {
		idx := l.heap[0].idx
		if l.arena[idx].fn != nil {
			return
		}
		l.popMin()
		l.lazyCancelled--
		l.freeSlot(idx)
	}
}

// Step fires the next event, advancing the clock to its time. It returns
// false when the queue is empty.
func (l *Loop) Step() bool { return l.step(math.MaxInt64) }

// step fires the next event — the earlier root of the two queues — if it
// is due by horizon.
func (l *Loop) step(horizon int64) bool {
	if len(l.heap) > 0 && l.arena[l.heap[0].idx].fn == nil {
		l.dropCancelledRoots()
	}
	var top heapEnt
	side := false
	switch {
	case len(l.side) > 0 && (len(l.heap) == 0 || entLess(l.side[0], l.heap[0])):
		top, side = l.side[0], true
	case len(l.heap) > 0:
		top = l.heap[0]
	default:
		return false
	}
	if top.when > horizon {
		return false
	}
	if top.when < l.now {
		panic(fmt.Sprintf("sim: time went backwards: %d < %d", top.when, l.now))
	}
	if side {
		l.sideRemove(0)
	} else {
		l.popMin()
	}
	l.now = top.when
	e := &l.arena[top.idx]
	if e.lane != 0 {
		l.laneFired(e.lane - 1)
	}
	fn := e.fn
	if !e.daemon {
		l.foreground--
	}
	l.live--
	// Free before firing so a self-rescheduling callback reuses this
	// slot. fn is a local copy; e must not be used past this point
	// (the callback may grow the arena).
	l.freeSlot(top.idx)
	fn()
	return true
}

// Run drains the event queue until no foreground (non-daemon) events
// remain. Pending daemon timers do not keep the simulation alive.
func (l *Loop) Run() {
	l.guard()
	for l.foreground > 0 && l.Step() {
	}
	l.running = false
}

// RunUntil processes events with time ≤ horizon, then sets the clock to
// horizon. Events scheduled beyond the horizon remain queued.
func (l *Loop) RunUntil(horizon int64) {
	l.guard()
	for l.step(horizon) {
	}
	if l.now < horizon {
		l.now = horizon
	}
	l.running = false
}

// RunFor advances the simulation by d nanoseconds.
func (l *Loop) RunFor(d int64) { l.RunUntil(l.now + d) }

func (l *Loop) guard() {
	if l.running {
		panic("sim: Loop re-entered")
	}
	l.running = true
}

// NextEventTime returns the time of the earliest non-cancelled event, or
// math.MaxInt64 if none.
func (l *Loop) NextEventTime() int64 {
	l.dropCancelledRoots()
	next := int64(math.MaxInt64)
	if len(l.heap) > 0 {
		next = l.heap[0].when
	}
	if len(l.side) > 0 && l.side[0].when < next {
		next = l.side[0].when
	}
	return next
}
