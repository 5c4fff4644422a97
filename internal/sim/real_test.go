package sim

import (
	"testing"
	"time"
)

func TestRealShardsClampAndLayout(t *testing.T) {
	if n := NewRealShards(0).N(); n != 1 {
		t.Fatalf("NewRealShards(0).N() = %d, want 1 (clamped)", n)
	}
	s := NewRealShards(4)
	if s.N() != 4 {
		t.Fatalf("N = %d, want 4", s.N())
	}
	seen := map[*RealScheduler]bool{}
	for i := 0; i < 4; i++ {
		sh := s.Shard(i)
		if sh == nil || seen[sh] {
			t.Fatalf("shard %d nil or duplicated", i)
		}
		seen[sh] = true
	}
}

func TestRealShardsCommonEpoch(t *testing.T) {
	s := NewRealShards(3)
	// All shards anchor at one epoch: sampling them back-to-back must give
	// times within the read skew, far under the spread that distinct
	// time.Now() epochs (microseconds apart) could produce over a run.
	s.Lock()
	a, b, c := s.Shard(0).Now(), s.Shard(1).Now(), s.Shard(2).Now()
	s.Unlock()
	const skew = int64(50 * time.Millisecond)
	if b-a > skew || c-b > skew || b < a || c < b {
		t.Fatalf("shard clocks diverge: %d %d %d", a, b, c)
	}
	if s.Now() < a {
		t.Fatal("RealShards.Now went backwards vs shard 0")
	}
}

func TestRealShardsLockAll(t *testing.T) {
	s := NewRealShards(4)
	// Lock-all must be balanced and re-acquirable, and must really hold
	// each shard: a timer queued while locked cannot have fired yet.
	s.Lock()
	fired := make(chan int64, 1)
	sh := s.Shard(2)
	sh.After(0, func() { fired <- sh.Now() })
	select {
	case <-fired:
		t.Fatal("timer fired while its shard was locked")
	case <-time.After(20 * time.Millisecond):
	}
	s.Unlock()
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("timer never fired after unlock")
	}
	s.Lock()
	s.Unlock()
}

func TestRealShardsAfterRunsOnOwnShard(t *testing.T) {
	s := NewRealShards(2)
	done := make(chan struct{})
	s.Shard(1).After(int64(time.Millisecond), func() { close(done) })
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("shard timer never fired")
	}
}

// TestRealClockSampledPerEntry pins the clock contract the loop gives the
// same components: Now is constant within one entry into the shard, and
// Lock (the shard's own or the set's) and Tick are what sample it.
func TestRealClockSampledPerEntry(t *testing.T) {
	const ms = int64(time.Millisecond)
	shards := NewRealShards(2)
	s := shards.Shard(0)
	// Set-up, before anything has entered the shard: there is no sample
	// yet, and a component built now must not be told it is time 0.
	time.Sleep(time.Millisecond)
	if now := s.Now(); now < ms {
		t.Errorf("Now = %d on a shard nothing has entered, 1 ms after its epoch", now)
	}
	s.Lock()
	a := s.Now()
	time.Sleep(time.Millisecond)
	if b := s.Now(); b != a {
		t.Errorf("Now moved %d -> %d under one Lock", a, b)
	}
	s.Tick()
	b := s.Now()
	if b < a+ms {
		t.Errorf("Tick after a 1 ms sleep moved the clock %d -> %d", a, b)
	}
	reads := s.ClockReads()
	s.Unlock()
	if reads != 2 {
		t.Errorf("%d clock reads after one Lock and one Tick, want 2", reads)
	}

	// The set's lock-free clock reads the wall.
	w0 := shards.Now()
	time.Sleep(time.Millisecond)
	w1 := shards.Now()
	if w1 < w0+ms || w0 < b {
		t.Errorf("RealShards.Now read %d then %d with no lock held, after a shard sample of %d", w0, w1, b)
	}

	// Lock-all enters every shard, so a snapshot taken under it sees a
	// fresh clock on each, including one nothing has touched yet.
	shards.Lock()
	for i := 0; i < shards.N(); i++ {
		if now := shards.Shard(i).Now(); now < w1 {
			t.Errorf("shard %d reads %d under RealShards.Lock, before the %d read ahead of it", i, now, w1)
		}
	}
	shards.Unlock()
}

// TestRealClockInTimerCallback: a timer callback is one entry too — its
// clock is sampled once, at or after the event's deadline.
func TestRealClockInTimerCallback(t *testing.T) {
	s := NewRealShards(1).Shard(0)
	got := make(chan [2]int64, 1)
	s.Lock()
	h := s.After(int64(2*time.Millisecond), func() {
		first := s.Now()
		time.Sleep(time.Millisecond)
		got <- [2]int64{first, s.Now()}
	})
	when := h.When()
	s.Unlock()
	select {
	case now := <-got:
		if now[0] != now[1] {
			t.Errorf("Now moved %d -> %d inside one callback", now[0], now[1])
		}
		if now[0] < when {
			t.Errorf("callback ran at %d, before its deadline %d", now[0], when)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timer never fired")
	}
}

// TestRealDelaysIgnoreStaleClock: the sample an entry holds may be old, and
// a delay is wall time — After(d) lasts d from the call, and At(t) fires at
// t, whatever Now says.
func TestRealDelaysIgnoreStaleClock(t *testing.T) {
	s := NewRealShards(1).Shard(0)
	const stale, d = int64(5 * time.Millisecond), int64(20 * time.Millisecond)
	after, at := make(chan time.Time, 1), make(chan int64, 1)
	s.Lock()
	time.Sleep(time.Duration(stale)) // the entry's clock now lags the wall
	armed := time.Now()
	h := s.After(d, func() { after <- time.Now() })
	if w := h.When(); w < s.Now()+stale+d {
		t.Errorf("After(%d) from a clock %d stale is due at %d, want >= %d", d, stale, w, s.Now()+stale+d)
	}
	target := s.Now() + d
	s.At(target, func() { at <- s.Now() })
	s.Unlock()
	for after != nil || at != nil {
		select {
		case fired := <-after:
			if got := fired.Sub(armed); got < time.Duration(d) {
				t.Errorf("After(%d) fired %v after it was armed", d, got)
			}
			after = nil
		case now := <-at:
			if now < target {
				t.Errorf("At(%d) ran at %d", target, now)
			}
			at = nil
		case <-time.After(5 * time.Second):
			t.Fatal("timers never fired")
		}
	}
}

// wakeupCount reads the shard's fire-path entry counter.
func wakeupCount(s *RealScheduler) int64 {
	s.Lock()
	defer s.Unlock()
	return s.wakeups
}

func TestRealCancelStopsTheTimer(t *testing.T) {
	s := NewRealShards(1).Shard(0)
	const longest = int64(30 * time.Millisecond)
	s.Lock()
	for i := 0; i < 1000; i++ {
		h := s.After(longest-int64(i)*int64(10*time.Microsecond), func() { t.Error("cancelled timer fired") })
		h.Cancel()
		if h.Active() || h.When() != 0 {
			t.Fatalf("Active/When = %v/%d after Cancel, want false/0", h.Active(), h.When())
		}
	}
	s.Unlock()
	// A sentinel armed past the longest deadline: once it has run, every
	// cancelled timer that was going to wake up has done so.
	done := make(chan struct{})
	s.After(longest+int64(10*time.Millisecond), func() { close(done) })
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("sentinel never fired")
	}
	if n := wakeupCount(s); n != 1 {
		t.Fatalf("%d fire-path entries, want 1 (the sentinel): cancelled timers still wake up", n)
	}
}

func TestRealReschedule(t *testing.T) {
	s := NewRealShards(1).Shard(0)
	fired := make(chan int64, 4)
	fn := func() { fired <- s.Now() }

	// Later: the original deadline passes silently.
	s.Lock()
	h0 := s.After(int64(5*time.Millisecond), fn)
	want := s.Now() + int64(40*time.Millisecond)
	h1 := h0.Reschedule(want)
	if h0.Active() || h0.When() != 0 || h0.Reschedule(0) != h0 {
		t.Error("superseded wall-clock handle is not inert")
	}
	h0.Cancel() // must not touch the event it no longer names
	if !h1.Active() || h1.When() != want {
		t.Errorf("Active/When = %v/%d after Reschedule, want true/%d", h1.Active(), h1.When(), want)
	}
	s.Unlock()
	select {
	case at := <-fired:
		if at < want {
			t.Fatalf("fired at %d, before the rescheduled %d", at, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("rescheduled timer never fired")
	}
	if h1.Active() || h1.Reschedule(0) != h1 {
		t.Error("fired wall-clock handle is not inert")
	}

	// Earlier: fires well before the original deadline.
	s.Lock()
	start := s.Now()
	s.After(int64(10*time.Second), fn).Reschedule(start + int64(time.Millisecond))
	s.Unlock()
	select {
	case at := <-fired:
		if at-start > int64(5*time.Second) {
			t.Fatalf("fired %v after an earlier Reschedule", time.Duration(at-start))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timer rescheduled earlier never fired")
	}

	// A Reset that races a wake-up already waiting for the shard lock:
	// that wake-up must stand down and the callback run once, on time.
	s.Lock()
	h := s.After(0, fn)
	time.Sleep(5 * time.Millisecond) // the runtime timer fires; its goroutine blocks on the lock
	want = s.Now() + int64(30*time.Millisecond)
	h = h.Reschedule(want)
	s.Unlock()
	select {
	case at := <-fired:
		if at < want {
			t.Fatalf("stale wake-up ran the callback at %d, before the rescheduled %d", at, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timer rescheduled under a pending wake-up never fired")
	}
	select {
	case <-fired:
		t.Fatal("callback ran twice")
	case <-time.After(50 * time.Millisecond):
	}
	if h.Active() {
		t.Error("handle still active after firing")
	}
}

// TestRealRescheduleChurn re-keys and cancels timers from several
// goroutines while others fire: under -race this covers Stop and Reset
// against the fire path, and the sampled shard clock against every way in
// (Lock, Tick, a firing timer).
func TestRealRescheduleChurn(t *testing.T) {
	s := NewRealShards(1).Shard(0)
	const workers, rounds = 4, 200
	fires := 0 // under the shard lock
	// Every entry, from a worker or from a timer, must find the clock at or
	// past the last one's and leave it where it found it.
	var last int64 // under the shard lock
	entered := func() int64 {
		now := s.Now()
		if now < last {
			t.Errorf("shard clock went back %d -> %d", last, now)
		}
		last = now
		return now
	}
	done := make(chan int, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			live := 0
			for i := 0; i < rounds; i++ {
				s.Lock()
				now := entered()
				h := s.After(int64(200*time.Microsecond), func() { entered(); fires++ })
				for j := 0; j < 3; j++ {
					h = h.Reschedule(s.Now() + int64(100*time.Microsecond)*int64(j))
				}
				if s.Now() != now {
					t.Errorf("Now moved %d -> %d under one Lock", now, s.Now())
				}
				if i%4 == 0 {
					s.Tick()
					entered()
				}
				if i%3 == w%3 {
					h.Cancel()
				} else {
					live++
				}
				s.Unlock()
				if i%16 == 0 {
					time.Sleep(300 * time.Microsecond) // let some fire mid-churn
				}
			}
			done <- live
		}(w)
	}
	want := 0
	for w := 0; w < workers; w++ {
		want += <-done
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.Lock()
		got := fires
		s.Unlock()
		if got == want {
			break
		}
		if got > want || time.Now().After(deadline) {
			t.Fatalf("%d callbacks ran, want %d", got, want)
		}
		time.Sleep(time.Millisecond)
	}
}
