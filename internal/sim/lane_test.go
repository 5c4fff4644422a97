package sim

import (
	"strings"
	"testing"
)

// laneWorld is one side of the lane differential test: a loop, its lanes,
// a few movable timers, and the firing trace. On the oracle side every lane
// call is an At.
type laneWorld struct {
	l      *Loop
	oracle bool
	lanes  []func(t int64, fn func())
	last   []int64 // the latest time scheduled on each lane
	mov    []Timer
	movFn  []func()
	ids    int64
	cbRNG  *RNG
	trace  []int64 // (now, id) pairs
	shot   func()
	// maxBacklog is the deepest the lane backlogs got (lane side only), and
	// compact records that a cancel set off a compaction.
	maxBacklog int
	compact    bool
}

const (
	diffLanes   = 6
	diffMovable = 8
)

func newLaneWorld(oracle bool, seed uint64) *laneWorld {
	w := &laneWorld{
		l:      NewLoop(),
		oracle: oracle,
		lanes:  make([]func(int64, func()), diffLanes),
		last:   make([]int64, diffLanes),
		mov:    make([]Timer, diffMovable),
		movFn:  make([]func(), diffMovable),
		cbRNG:  NewRNG(seed),
	}
	for j := range w.lanes {
		w.lanes[j] = w.l.NewLane()
	}
	w.shot = func() { w.trace = append(w.trace, w.l.Now(), -1) }
	for k := range w.movFn {
		k := k
		w.movFn[k] = func() { w.trace = append(w.trace, w.l.Now(), -2-int64(k)) }
	}
	return w
}

// laneAt schedules a traced event on lane j at t, or at the lane's last time
// if t is earlier: on the oracle side with At.
func (w *laneWorld) laneAt(j int, t int64) {
	t = max(t, w.last[j])
	id := w.ids
	w.ids++
	fn := func() { w.fire(j, id) }
	if w.oracle {
		w.l.At(t, fn)
	} else {
		w.lanes[j](t, fn)
		w.maxBacklog = max(w.maxBacklog, w.l.backlog)
	}
	w.last[j] = max(t, w.l.Now())
}

// fire is a lane event's callback: it records itself and, by the callback
// stream (in lockstep on both sides), schedules more at Now or soon after.
func (w *laneWorld) fire(j int, id int64) {
	now := w.l.Now()
	w.trace = append(w.trace, now, id)
	d := 10 * w.cbRNG.Int63n(4)
	switch w.cbRNG.Intn(8) {
	case 0, 1: // the same lane again
		w.laneAt(j, now+d)
	case 2: // another lane, at Now if it is idle
		w.laneAt(w.cbRNG.Intn(diffLanes), now)
	case 3:
		w.l.At(now, w.shot)
	case 4:
		k := w.cbRNG.Intn(diffMovable)
		w.mov[k] = w.mov[k].Reschedule(now + d)
	}
}

// cancel cancels h and notes whether that set off a compaction.
func (w *laneWorld) cancel(h Timer) {
	before := w.l.Queued()
	h.Cancel()
	if w.l.Queued() < before-1 {
		w.compact = true
	}
}

// TestLaneDifferential locksteps a loop whose monotone streams go through
// FIFO lanes against an oracle loop that schedules the same events with At,
// over a random op stream: lanes with equal-time ties within and across
// them (a far-future call makes every later one on that lane clamp onto its
// instant), one-shots, movable timers that are re-keyed and cancelled,
// callbacks that schedule at Now, far-future churn that sets off
// compaction, and RunUntil horizons. Nothing observable may differ: the
// fire sequence, Now, Pending, Live, Queued and NextEventTime after every op.
func TestLaneDifferential(t *testing.T) {
	const ops = 100_000
	a, b := newLaneWorld(false, 7), newLaneWorld(true, 7)
	worlds := []*laneWorld{a, b}
	rng := NewRNG(2026)
	for op := 0; op < ops; op++ {
		now := a.l.Now()
		j, k := rng.Intn(diffLanes), rng.Intn(diffMovable)
		d := 10 * rng.Int63n(20) // coarse grid: equal timestamps are common
		kind := rng.Intn(100)
		burst := 1 + rng.Intn(diffLanes)
		for _, w := range worlds {
			switch {
			case kind < 25:
				w.laneAt(j, now+d)
			case kind < 28: // into the past: clamps to Now on an idle lane
				w.laneAt(j, now-d)
			case kind < 30: // far out: the lane's later calls pile onto it
				w.laneAt(j, now+5_000+d)
			case kind < 36: // several lanes and a one-shot on one instant
				for i := 0; i < burst; i++ {
					w.laneAt((j+i)%diffLanes, now+d)
				}
				w.l.At(now+d, w.shot)
			case kind < 44:
				w.l.After(d, w.shot)
			case kind < 50:
				if !w.mov[k].Active() {
					w.mov[k] = w.l.AtMovable(now+d, w.movFn[k])
				}
			case kind < 58:
				w.mov[k] = w.mov[k].Reschedule(now + d)
			case kind < 61:
				w.cancel(w.mov[k])
			case kind < 63: // far-future churn: tombstones pile up until compaction
				for i := 0; i < 100*burst; i++ {
					w.cancel(w.l.At(now+1_000_000+int64(i), w.shot))
				}
			case kind < 90:
				w.l.RunUntil(now + d/2)
			case kind < 99:
				w.l.Step()
			default:
				w.l.Run()
			}
		}
		if a.l.Now() != b.l.Now() || a.l.Pending() != b.l.Pending() || a.l.Live() != b.l.Live() ||
			a.l.Queued() != b.l.Queued() || a.l.NextEventTime() != b.l.NextEventTime() {
			t.Fatalf("op %d (kind %d): now/pending/live/queued/next = %d/%d/%d/%d/%d with lanes, %d/%d/%d/%d/%d with At",
				op, kind, a.l.Now(), a.l.Pending(), a.l.Live(), a.l.Queued(), a.l.NextEventTime(),
				b.l.Now(), b.l.Pending(), b.l.Live(), b.l.Queued(), b.l.NextEventTime())
		}
		if len(a.trace) != len(b.trace) {
			t.Fatalf("op %d (kind %d): %d firings with lanes, %d with At", op, kind, len(a.trace)/2, len(b.trace)/2)
		}
		if n := len(a.trace); n > 0 && (a.trace[n-2] != b.trace[n-2] || a.trace[n-1] != b.trace[n-1]) {
			t.Fatalf("op %d (kind %d): last firing (now, id) = (%d, %d) with lanes, (%d, %d) with At",
				op, kind, a.trace[n-2], a.trace[n-1], b.trace[n-2], b.trace[n-1])
		}
	}
	for _, w := range worlds {
		for _, h := range w.mov {
			h.Cancel()
		}
		w.l.Run()
	}
	for i := range a.trace {
		if a.trace[i] != b.trace[i] {
			t.Fatalf("firing %d: (now, id) = (%d, %d) with lanes, (%d, %d) with At",
				i/2, a.trace[i&^1], a.trace[i|1], b.trace[i&^1], b.trace[i|1])
		}
	}
	if len(a.trace) < ops/2 || a.maxBacklog < 50 || !a.compact || !b.compact {
		t.Fatalf("%d firings over %d ops, deepest backlog %d, compaction %v/%v: the op mix is not exercising the lanes",
			len(a.trace)/2, ops, a.maxBacklog, a.compact, b.compact)
	}
	if a.l.Queued() != 0 || a.l.backlog != 0 {
		t.Fatalf("Queued/backlog = %d/%d after the final Run, want 0/0", a.l.Queued(), a.l.backlog)
	}
	t.Logf("%d ops, %d firings, deepest lane backlog %d, traces identical", ops, len(a.trace)/2, a.maxBacklog)
}

// wantPanic fails unless fn panics with a message containing want.
func wantPanic(t *testing.T, what, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("%s did not panic", what)
		}
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Fatalf("%s panicked with %v, want %q", what, r, want)
		}
	}()
	fn()
}

// TestLaneContract: a lane call is At for a time that never decreases — a
// past time clamps to Now and queues behind what Now already holds — and a
// call that goes back before the lane's previous one panics, as does a nil
// callback.
func TestLaneContract(t *testing.T) {
	l := NewLoop()
	lane := l.NewLane()
	nop := func() {}
	lane(100, nop)
	wantPanic(t, "a lane call before the previous one", "before the lane's previous", func() { lane(99, nop) })
	wantPanic(t, "a lane call with a nil callback", "nil callback", func() { lane(100, nil) })
	l.RunUntil(200)

	var order []int
	l.At(200, func() { order = append(order, 1) })
	lane(40, func() { // the lane's 100 is past: this clamps to 200
		if l.Now() != 200 {
			t.Errorf("clamped lane event fired at %d, want 200", l.Now())
		}
		order = append(order, 2)
	})
	l.At(200, func() { order = append(order, 3) })
	l.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]: a clamped lane event keeps its place among equal times", order)
	}
	lane(300, nop)
	wantPanic(t, "a lane call back before a pending one", "before the lane's previous", func() { lane(250, nop) })
	l.Run()
	if l.Now() != 300 || l.Queued() != 0 {
		t.Fatalf("now/Queued = %d/%d after Run, want 300/0", l.Now(), l.Queued())
	}
}

// TestLaneRunDrainsBacklog: Run fires every lane event, backlog and all, in
// (time, scheduling) order, and leaves nothing queued.
func TestLaneRunDrainsBacklog(t *testing.T) {
	l := NewLoop()
	lanes := []func(int64, func()){l.NewLane(), l.NewLane(), l.NewLane()}
	var got []int64
	for i := 0; i < 300; i++ {
		when := int64(10 * (i / 7)) // seven calls per instant, spread over the lanes
		i := i
		lanes[i%3](when, func() { got = append(got, int64(i)) })
	}
	if l.Pending() != 300 || l.Live() != 300 || l.Queued() != 300 || len(l.heap) != 3 {
		t.Fatalf("Pending/Live/Queued/heap = %d/%d/%d/%d, want 300/300/300/3",
			l.Pending(), l.Live(), l.Queued(), len(l.heap))
	}
	l.Run()
	for i, id := range got {
		if id != int64(i) {
			t.Fatalf("event %d fired in position %d: %v", id, i, got)
		}
	}
	if len(got) != 300 || l.Pending() != 0 || l.Live() != 0 || l.Queued() != 0 || l.Now() != 10*(299/7) {
		t.Fatalf("after Run: %d fired, Pending/Live/Queued = %d/%d/%d at t=%d",
			len(got), l.Pending(), l.Live(), l.Queued(), l.Now())
	}
}

// TestLaneSteadyState: a lane that never drains — 64 events always behind
// its head, each firing schedules one more — allocates nothing per event
// and keeps one bounded backing array.
func TestLaneSteadyState(t *testing.T) {
	const depth = 64
	l := NewLoop()
	lane := l.NewLane()
	var last int64
	n := 0
	var fire func()
	fire = func() {
		if n > 0 {
			n--
			last += 10
			lane(last, fire)
		}
	}
	for i := 0; i < depth; i++ {
		last += 10
		lane(last, fire)
	}
	n = 10_000
	l.RunUntil(l.Now() + 10*10_000)
	if l.backlog != depth-1 {
		t.Fatalf("backlog = %d, want %d", l.backlog, depth-1)
	}
	warm := cap(l.lanes[0].q)
	if avg := testing.AllocsPerRun(100, func() {
		n = depth
		l.RunUntil(l.Now() + 10*depth)
	}); avg > 0 {
		t.Errorf("lane fire/schedule cycle allocates %.2f objects per %d events, want 0", avg, depth)
	}
	n = 100_000
	l.RunUntil(l.Now() + 10*100_000)
	if c := cap(l.lanes[0].q); c != warm || c > 4*depth {
		t.Fatalf("lane backing array: cap %d after warm-up, %d after 100k more events; want it unchanged and at most %d",
			warm, c, 4*depth)
	}
}
