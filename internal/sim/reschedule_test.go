package sim

import "testing"

// wantInert fails unless every operation on h is a no-op on loop l.
func wantInert(t *testing.T, l *Loop, what string, h Timer) {
	t.Helper()
	pending, live, queued := l.Pending(), l.Live(), l.Queued()
	if h.Active() || !h.Cancelled() || h.When() != 0 {
		t.Fatalf("%s: Active/Cancelled/When = %v/%v/%d, want false/true/0",
			what, h.Active(), h.Cancelled(), h.When())
	}
	h.Cancel()
	h.MarkDaemon()
	if r := h.Reschedule(l.Now() + 1); r != h {
		t.Fatalf("%s: Reschedule returned %+v, want the receiver", what, r)
	}
	if l.Pending() != pending || l.Live() != live || l.Queued() != queued {
		t.Fatalf("%s: operations on an inert handle moved Pending/Live/Queued to %d/%d/%d, want %d/%d/%d",
			what, l.Pending(), l.Live(), l.Queued(), pending, live, queued)
	}
}

func TestTimerRescheduleHandles(t *testing.T) {
	l := NewLoop()
	fires := 0
	h0 := l.At(100, func() { fires++ })
	l.At(50, func() {})

	// First reschedule moves the event to the side heap, second re-keys it
	// in place; each returns a live handle and retires its receiver.
	h1 := h0.Reschedule(70)
	wantInert(t, l, "handle superseded by the first Reschedule", h0)
	h2 := h1.Reschedule(30)
	wantInert(t, l, "handle superseded by an in-place Reschedule", h1)
	if !h2.Active() || h2.When() != 30 {
		t.Fatalf("Active/When = %v/%d after Reschedule(30), want true/30", h2.Active(), h2.When())
	}
	if l.Pending() != 2 || l.Live() != 2 {
		t.Fatalf("Pending/Live = %d/%d, want 2/2: a reschedule keeps the event", l.Pending(), l.Live())
	}
	if got := l.NextEventTime(); got != 30 {
		t.Fatalf("NextEventTime = %d, want the rescheduled 30", got)
	}

	// The daemon flag travels with the event and can be set through the
	// new handle.
	h2.MarkDaemon()
	if l.Live() != 1 {
		t.Fatalf("Live = %d after MarkDaemon on a rescheduled timer, want 1", l.Live())
	}
	h3 := h2.Reschedule(60)
	if l.Pending() != 2 || l.Live() != 1 {
		t.Fatalf("Pending/Live = %d/%d, want 2/1: Reschedule keeps the daemon flag", l.Pending(), l.Live())
	}
	l.Run() // stops at 50: only the daemon is left
	if fires != 0 || l.Now() != 50 {
		t.Fatalf("fires/now = %d/%d, want 0/50", fires, l.Now())
	}
	l.RunUntil(60)
	if fires != 1 {
		t.Fatalf("rescheduled timer fired %d times by its deadline, want 1", fires)
	}
	wantInert(t, l, "fired side-heap handle", h3)

	// Cancel through the new handle removes the side entry at once.
	h := l.At(200, func() { t.Error("cancelled timer fired") }).Reschedule(150)
	tombstones := l.Queued() - l.Pending()
	h.Cancel()
	if l.Pending() != 0 || l.Queued()-l.Pending() != tombstones {
		t.Fatalf("Pending = %d, tombstones %d -> %d: Cancel of a side event must be eager",
			l.Pending(), tombstones, l.Queued()-l.Pending())
	}
	wantInert(t, l, "cancelled side-heap handle", h)
	wantInert(t, l, "zero handle", Timer{})
	l.Run()

	// A past time clamps to Now, and the event queues behind what is
	// already scheduled for that instant.
	var order []int
	l.At(l.Now(), func() { order = append(order, 1) })
	l.At(l.Now()+10, func() { order = append(order, 2) }).Reschedule(l.Now() - 5)
	l.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v, want [1 2]", order)
	}
}

// reschedWorld is one side of the differential test: a loop, a set of
// long-lived timer slots, and the firing trace.
type reschedWorld struct {
	l       *Loop
	oracle  bool // re-key with Cancel+At instead of Reschedule, arm with At instead of AtMovable
	h       []Timer
	daemon  []bool
	fn      []func()
	stale   []Timer // superseded, cancelled and fired handles
	cbRNG   *RNG
	trace   []int64 // (now, id) pairs
	oneShot func()
	compact bool // a cancel shrank the raw queue: compaction ran
	movable int  // arms that asked for a movable timer
}

const reschedSlots = 48

func newReschedWorld(oracle bool, seed uint64) *reschedWorld {
	w := &reschedWorld{
		l:      NewLoop(),
		oracle: oracle,
		h:      make([]Timer, reschedSlots),
		daemon: make([]bool, reschedSlots),
		fn:     make([]func(), reschedSlots),
		cbRNG:  NewRNG(seed),
	}
	w.oneShot = func() { w.trace = append(w.trace, w.l.Now(), -1) }
	for k := range w.fn {
		k := k
		w.fn[k] = func() {
			w.trace = append(w.trace, w.l.Now(), int64(k))
			d := 10 * w.cbRNG.Int63n(8)
			switch w.cbRNG.Intn(6) {
			case 0: // re-arm from the callback, even slots as a movable timer
				w.arm(k, w.l.Now()+d, k%2 == 0)
			case 1: // reschedule another slot from inside a callback
				w.resched(w.cbRNG.Intn(reschedSlots), w.l.Now()+d)
			case 2: // the firing handle is already spent
				w.resched(k, w.l.Now()+d)
			}
		}
	}
	return w
}

func (w *reschedWorld) retire(h Timer) {
	if len(w.stale) < 256 {
		w.stale = append(w.stale, h)
	} else {
		w.stale[w.cbRNG.Intn(len(w.stale))] = h
	}
}

// arm schedules slot k's timer if it is not pending: with AtMovable when
// the op asks for a movable timer — on the oracle side with At all the same,
// which is the contract.
func (w *reschedWorld) arm(k int, when int64, movable bool) {
	if w.h[k].Active() {
		return
	}
	w.retire(w.h[k])
	if movable {
		w.movable++
	}
	if movable && !w.oracle {
		w.h[k] = w.l.AtMovable(when, w.fn[k])
	} else {
		w.h[k] = w.l.At(when, w.fn[k])
	}
	w.daemon[k] = false
}

// cancel cancels h and notes whether that set off a compaction.
func (w *reschedWorld) cancel(h Timer) {
	before := w.l.Queued()
	h.Cancel()
	if w.l.Queued() < before-1 {
		w.compact = true
	}
}

func (w *reschedWorld) markDaemon(k int) {
	if w.h[k].Active() {
		w.daemon[k] = true
	}
	w.h[k].MarkDaemon()
}

func (w *reschedWorld) resched(k int, when int64) {
	old := w.h[k]
	if !w.oracle {
		w.h[k] = old.Reschedule(when)
	} else if old.Active() {
		old.Cancel()
		w.h[k] = w.l.At(when, w.fn[k])
		if w.daemon[k] {
			w.h[k].MarkDaemon()
		}
	}
	if w.h[k] != old {
		w.retire(old)
	}
}

// TestRescheduleDifferential locksteps a loop whose timers are re-keyed
// with Reschedule, and half of them born on the side heap with AtMovable,
// against an oracle loop that cancels and schedules again and knows only At,
// over a long random op stream. The contract is that nothing observable
// differs: the firing trace, the clock, and Pending/Live after every op. A
// movable timer meets every op the others do: it fires without ever being
// moved, is cancelled, re-keyed, marked daemon, re-armed from inside its own
// callback, and shares instants with main-heap events on the coarse grid.
func TestRescheduleDifferential(t *testing.T) {
	const ops = 150_000
	a, b := newReschedWorld(false, 99), newReschedWorld(true, 99)
	worlds := []*reschedWorld{a, b}
	rng := NewRNG(2024)
	for op := 0; op < ops; op++ {
		k := rng.Intn(reschedSlots)
		now := a.l.Now()
		d := 10 * rng.Int63n(40) // coarse grid: equal timestamps are common
		kind := rng.Intn(100)
		other, stale, burst := rng.Intn(reschedSlots), rng.Intn(256), rng.Intn(200)
		for _, w := range worlds {
			switch {
			case kind < 10:
				w.arm(k, now+d, false)
			case kind < 20:
				w.arm(k, now+d, true)
			case kind < 25: // movable onto another timer's instant, a one-shot onto the same behind it
				w.arm(k, w.h[other].When(), true)
				w.l.At(w.h[k].When(), w.oneShot)
			case kind < 35:
				w.cancel(w.h[k])
			case kind < 40:
				w.markDaemon(k)
			case kind < 50: // later, or equal when d == 0
				w.resched(k, w.h[k].When()+d)
			case kind < 55: // earlier, possibly into the past (clamped)
				w.resched(k, w.h[k].When()-d)
			case kind < 60: // onto another timer's instant
				w.resched(k, w.h[other].When())
			case kind < 65:
				w.resched(k, now+d)
			case kind < 70: // two back to back onto one instant: FIFO between them
				w.resched(k, now+d)
				w.resched(other, now+d)
			case kind < 75: // one-shot that fires
				w.l.After(d, w.oneShot)
			case kind < 80: // a spent handle must stay inert
				if stale < len(w.stale) {
					h := w.stale[stale]
					h.Cancel()
					h.MarkDaemon()
					if w.oracle {
						if h.Active() {
							t.Fatalf("op %d: oracle stale handle is active", op)
						}
					} else if r := h.Reschedule(now + d); r != h || r.Active() || r.When() != 0 {
						t.Fatalf("op %d: Reschedule of a spent handle returned %+v (active %v)", op, r, r.Active())
					}
				}
				Timer{}.Reschedule(now + d)
			case kind < 82: // far-future churn: tombstones pile up until compaction
				for i := 0; i < burst; i++ {
					w.cancel(w.l.At(now+1_000_000+int64(i), w.oneShot))
				}
			case kind < 99:
				w.l.RunUntil(now + d/4)
			default:
				w.l.Run()
			}
		}
		if a.l.Now() != b.l.Now() || a.l.Pending() != b.l.Pending() || a.l.Live() != b.l.Live() {
			t.Fatalf("op %d (kind %d): now/pending/live = %d/%d/%d with Reschedule, %d/%d/%d with Cancel+At",
				op, kind, a.l.Now(), a.l.Pending(), a.l.Live(), b.l.Now(), b.l.Pending(), b.l.Live())
		}
		if a.l.NextEventTime() != b.l.NextEventTime() {
			t.Fatalf("op %d (kind %d): NextEventTime = %d with Reschedule, %d with Cancel+At",
				op, kind, a.l.NextEventTime(), b.l.NextEventTime())
		}
		if a.h[k].Active() != b.h[k].Active() || a.h[k].When() != b.h[k].When() {
			t.Fatalf("op %d (kind %d): slot %d active/when = %v/%d with Reschedule, %v/%d with Cancel+At",
				op, kind, k, a.h[k].Active(), a.h[k].When(), b.h[k].Active(), b.h[k].When())
		}
		if len(a.trace) != len(b.trace) {
			t.Fatalf("op %d (kind %d): %d firings with Reschedule, %d with Cancel+At",
				op, kind, len(a.trace)/2, len(b.trace)/2)
		}
	}
	for _, w := range worlds {
		for k := range w.h {
			w.h[k].Cancel() // daemons would otherwise outlive Run
		}
		w.l.Run()
	}
	for i := range a.trace {
		if a.trace[i] != b.trace[i] {
			t.Fatalf("firing %d: (now, id) = (%d, %d) with Reschedule, (%d, %d) with Cancel+At",
				i/2, a.trace[i&^1], a.trace[i|1], b.trace[i&^1], b.trace[i|1])
		}
	}
	if len(a.trace) < ops/4 {
		t.Fatalf("only %d firings over %d ops: the op mix is not exercising the loop", len(a.trace)/2, ops)
	}
	if !a.compact || !b.compact {
		t.Fatalf("compaction ran: %v with Reschedule, %v with Cancel+At; want both", a.compact, b.compact)
	}
	if len(a.l.side) != 0 {
		t.Fatalf("%d entries left in the side heap", len(a.l.side))
	}
	if a.movable != b.movable || a.movable < ops/10 {
		t.Fatalf("%d movable arms with AtMovable, %d on the oracle side, want the same and at least %d", a.movable, b.movable, ops/10)
	}
	t.Logf("%d ops, %d firings (%d timers armed movable), traces identical", ops, len(a.trace)/2, a.movable)
}
