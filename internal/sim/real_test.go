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
	// All shards anchor at one epoch: reading them back-to-back must give
	// times within the read skew, far under the spread that distinct
	// time.Now() epochs (microseconds apart) could produce over a run.
	a, b, c := s.Shard(0).Now(), s.Shard(1).Now(), s.Shard(2).Now()
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
// against the fire path.
func TestRealRescheduleChurn(t *testing.T) {
	s := NewRealShards(1).Shard(0)
	const workers, rounds = 4, 200
	fires := 0 // under the shard lock
	done := make(chan int, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			live := 0
			for i := 0; i < rounds; i++ {
				s.Lock()
				h := s.After(int64(200*time.Microsecond), func() { fires++ })
				for j := 0; j < 3; j++ {
					h = h.Reschedule(s.Now() + int64(100*time.Microsecond)*int64(j))
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
