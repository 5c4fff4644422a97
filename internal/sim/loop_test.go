package sim

import (
	"testing"
	"testing/quick"
)

func TestLoopOrdersEventsByTime(t *testing.T) {
	l := NewLoop()
	var got []int
	l.After(30, func() { got = append(got, 3) })
	l.After(10, func() { got = append(got, 1) })
	l.After(20, func() { got = append(got, 2) })
	l.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events fired out of order: %v", got)
	}
	if l.Now() != 30 {
		t.Fatalf("clock = %d, want 30", l.Now())
	}
}

func TestLoopFIFOAmongEqualTimes(t *testing.T) {
	l := NewLoop()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		l.At(100, func() { got = append(got, i) })
	}
	l.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestLoopCancel(t *testing.T) {
	l := NewLoop()
	fired := false
	e := l.After(10, func() { fired = true })
	e.Cancel()
	l.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !e.Cancelled() {
		t.Fatal("Cancelled() = false after Cancel")
	}
	if e.When() != 0 {
		t.Fatalf("When() = %d on a cancelled timer, want 0", e.When())
	}
}

func TestLoopRunUntilHorizon(t *testing.T) {
	l := NewLoop()
	var fired []int64
	l.After(10, func() { fired = append(fired, 10) })
	l.After(50, func() { fired = append(fired, 50) })
	l.RunUntil(20)
	if len(fired) != 1 || fired[0] != 10 {
		t.Fatalf("fired = %v, want [10]", fired)
	}
	if l.Now() != 20 {
		t.Fatalf("clock = %d, want horizon 20", l.Now())
	}
	l.RunFor(40)
	if len(fired) != 2 {
		t.Fatalf("second event did not fire by t=60: %v", fired)
	}
}

func TestLoopEventSchedulesEvent(t *testing.T) {
	l := NewLoop()
	var times []int64
	var tick func()
	n := 0
	tick = func() {
		times = append(times, l.Now())
		n++
		if n < 5 {
			l.After(7, tick)
		}
	}
	l.After(7, tick)
	l.Run()
	for i, ts := range times {
		if want := int64(7 * (i + 1)); ts != want {
			t.Fatalf("tick %d at %d, want %d", i, ts, want)
		}
	}
}

func TestLoopPastEventClampsToNow(t *testing.T) {
	l := NewLoop()
	l.After(100, func() {
		l.At(50, func() {
			if l.Now() != 100 {
				t.Errorf("past event ran at %d, want clamped to 100", l.Now())
			}
		})
	})
	l.Run()
}

func TestNextEventTime(t *testing.T) {
	l := NewLoop()
	e := l.After(5, func() {})
	l.After(9, func() {})
	if got := l.NextEventTime(); got != 5 {
		t.Fatalf("NextEventTime = %d, want 5", got)
	}
	e.Cancel()
	if got := l.NextEventTime(); got != 9 {
		t.Fatalf("NextEventTime after cancel = %d, want 9", got)
	}
}

// Property: for any set of delays, events fire in nondecreasing time order
// and the loop ends with the clock at the max delay.
func TestLoopOrderingProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		l := NewLoop()
		var seen []int64
		var max int64
		for _, d := range delays {
			d := int64(d)
			if d > max {
				max = d
			}
			l.After(d, func() { seen = append(seen, l.Now()) })
		}
		l.Run()
		if len(seen) != len(delays) {
			return false
		}
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return l.Now() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLoopCancelAfterFire(t *testing.T) {
	l := NewLoop()
	fires := 0
	e := l.After(10, func() { fires = 1 })
	l.Run()
	if fires != 1 {
		t.Fatal("event did not fire")
	}
	if e.Active() {
		t.Fatal("Active() = true after fire")
	}
	// Cancel on a fired handle must be a no-op: the arena slot may already
	// host a different event, and the generation check must protect it.
	victim := false
	l.After(5, func() { victim = true }) // likely reuses the freed slot
	e.Cancel()
	l.Run()
	if !victim {
		t.Fatal("Cancel on a fired handle killed an unrelated event in the recycled slot")
	}
}

func TestLoopCancelTwice(t *testing.T) {
	l := NewLoop()
	e := l.After(10, func() { t.Error("cancelled event fired") })
	e.Cancel()
	e.Cancel() // second cancel must not double-decrement counters
	if l.Pending() != 0 {
		t.Fatalf("Pending = %d after double cancel, want 0", l.Pending())
	}
	if l.Live() != 0 {
		t.Fatalf("Live = %d after double cancel, want 0", l.Live())
	}
	// Schedule another event; a corrupted foreground count would end Run early.
	fired := false
	l.After(20, func() { fired = true })
	l.Run()
	if !fired {
		t.Fatal("event after double cancel did not fire")
	}
}

func TestLoopZeroTimer(t *testing.T) {
	var e Timer
	if e.Active() {
		t.Fatal("zero Timer is Active")
	}
	if !e.Cancelled() {
		t.Fatal("zero Timer not Cancelled")
	}
	e.Cancel() // must not panic
	if e.When() != 0 {
		t.Fatalf("zero Timer When = %d", e.When())
	}
}

func TestLoopDaemonDoesNotKeepRunAlive(t *testing.T) {
	l := NewLoop()
	work := 0
	var tick func()
	tick = func() {
		l.After(10, tick).MarkDaemon()
	}
	l.After(10, tick).MarkDaemon()
	l.After(35, func() { work = 1 })
	l.Run()
	if work != 1 {
		t.Fatal("foreground event did not fire")
	}
	// Run stops once foreground work drains; the daemon timer stays queued.
	if l.Now() != 35 {
		t.Fatalf("Run overran foreground work: now = %d, want 35", l.Now())
	}
	if l.Pending() != 1 || l.Live() != 0 {
		t.Fatalf("Pending/Live = %d/%d, want 1/0 (one queued daemon)", l.Pending(), l.Live())
	}
}

func TestLoopMarkDaemonTwice(t *testing.T) {
	l := NewLoop()
	e := l.After(10, func() {}).MarkDaemon()
	e.MarkDaemon() // must not double-decrement foreground
	fired := false
	l.After(5, func() { fired = true })
	l.Run()
	if !fired {
		t.Fatal("foreground event did not fire after double MarkDaemon")
	}
}

func TestLoopMarkDaemonAfterFire(t *testing.T) {
	l := NewLoop()
	e := l.After(10, func() {})
	l.Run()
	e.MarkDaemon() // stale handle: must be a no-op on the recycled slot
	fired := false
	l.After(5, func() { fired = true }) // may reuse e's slot
	l.Run()
	if !fired {
		t.Fatal("MarkDaemon on fired handle corrupted the recycled slot")
	}
}

func TestLoopCancelledDaemonAccounting(t *testing.T) {
	l := NewLoop()
	d := l.After(10, func() {}).MarkDaemon()
	d.Cancel()
	if l.Pending() != 0 || l.Live() != 0 {
		t.Fatalf("Pending/Live = %d/%d after daemon cancel, want 0/0", l.Pending(), l.Live())
	}
	fired := false
	l.After(5, func() { fired = true })
	l.Run()
	if !fired {
		t.Fatal("event did not fire after cancelling a daemon")
	}
}

func TestLoopPendingQueuedLazyCancel(t *testing.T) {
	l := NewLoop()
	timers := make([]Timer, 8)
	for i := range timers {
		timers[i] = l.After(int64(10+i), func() {})
	}
	if l.Pending() != 8 || l.Live() != 8 || l.Queued() != 8 {
		t.Fatalf("Pending/Live/Queued = %d/%d/%d, want 8/8/8", l.Pending(), l.Live(), l.Queued())
	}
	for _, e := range timers[:5] {
		e.Cancel()
	}
	// Cancelled entries leave Pending immediately but linger in the raw
	// queue until popped or compacted.
	if l.Pending() != 3 || l.Live() != 3 {
		t.Fatalf("Pending/Live = %d/%d after 5 cancels, want 3/3", l.Pending(), l.Live())
	}
	if l.Queued() != 8 {
		t.Fatalf("Queued = %d, want 8 (lazy cancel keeps slots)", l.Queued())
	}
	l.Run()
	if l.Pending() != 0 || l.Queued() != 0 {
		t.Fatalf("Pending/Queued = %d/%d after Run, want 0/0", l.Pending(), l.Queued())
	}
}

func TestLoopCompactionUnderChurn(t *testing.T) {
	// Schedule-and-cancel churn behind a far-future event: compaction must
	// keep the raw queue bounded instead of letting cancelled entries pile
	// up behind the long-lived one.
	l := NewLoop()
	l.At(1<<40, func() {})
	for i := 0; i < 10000; i++ {
		l.After(int64(1000+i), func() {}).Cancel()
	}
	if q := l.Queued(); q > 256 {
		t.Fatalf("Queued = %d after churn, want compacted (<= 256)", q)
	}
	if l.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", l.Pending())
	}
	l.Run()
	if l.Now() != 1<<40 {
		t.Fatalf("clock = %d, want 1<<40", l.Now())
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	for i := 0; i < 1000; i++ {
		if NewRNG(42).Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatal("different seeds look identical")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGIntnBounds(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		if n == 0 {
			return true
		}
		r := NewRNG(seed)
		for i := 0; i < 100; i++ {
			v := r.Intn(int(n))
			if v < 0 || v >= int(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(1)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Exp(100)
	}
	mean := sum / n
	if mean < 95 || mean > 105 {
		t.Fatalf("Exp mean = %v, want ~100", mean)
	}
}
