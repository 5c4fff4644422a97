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
	sh := s.Shard(1)
	sh.Lock()
	sh.After(int64(time.Millisecond), func() { close(done) })
	sh.Unlock()
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

// TestRealClockInTimerCallback: a fired event is one entry too — its clock
// is sampled once, at or after the event's deadline.
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

// ringCount reads the shard's bell-callback counter.
func ringCount(s *RealScheduler) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rings
}

// await fails the test unless ch delivers within five seconds.
func await[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(5 * time.Second):
		t.Fatalf("%s never fired", what)
		panic("unreachable")
	}
}

// TestRealCancelStopsTheTimer: the bell is the shard's only runtime timer,
// and a cancelled event costs it nothing later. Each timer is armed and
// cancelled in an entry of its own, with deadlines that move earlier, so
// the bell is pulled in a thousand times — and then rings once at the
// earliest of them, finds nothing, and once more for the sentinel.
func TestRealCancelStopsTheTimer(t *testing.T) {
	s := NewRealShards(1).Shard(0)
	const longest = int64(30 * time.Millisecond)
	for i := 0; i < 1000; i++ {
		s.Lock()
		h := s.After(longest-int64(i)*int64(10*time.Microsecond), func() { t.Error("cancelled timer fired") })
		h.Cancel()
		if h.Active() || h.When() != 0 {
			t.Fatalf("Active/When = %v/%d after Cancel, want false/0", h.Active(), h.When())
		}
		s.Unlock()
	}
	// A sentinel armed past the longest deadline: once it has run, every
	// ring the cancelled timers were going to cause has happened.
	done := make(chan struct{})
	s.Lock()
	s.After(longest+int64(10*time.Millisecond), func() { close(done) })
	s.Unlock()
	await(t, done, "sentinel")
	if n := ringCount(s); n < 1 || n > 2 {
		t.Fatalf("%d bell rings for 1000 cancelled timers and a sentinel, want 1 or 2", n)
	}
}

// TestRealBellFollowsEarliestDeadline: a Reschedule earlier pulls the bell
// in; one later lets it ring at the old deadline, once, for nothing.
func TestRealBellFollowsEarliestDeadline(t *testing.T) {
	s := NewRealShards(1).Shard(0)
	fired := make(chan int64, 1)
	fn := func() { fired <- s.Now() }

	s.Lock()
	start := s.Now()
	h := s.After(int64(10*time.Second), fn)
	s.Unlock()
	s.Lock()
	h.Reschedule(start + int64(time.Millisecond))
	s.Unlock()
	if at := await(t, fired, "timer rescheduled earlier"); at-start > int64(5*time.Second) {
		t.Fatalf("fired %v after a Reschedule to 1 ms", time.Duration(at-start))
	}
	if n := ringCount(s); n != 1 {
		t.Fatalf("%d bell rings for one event rescheduled earlier, want 1", n)
	}

	s.Lock()
	h = s.After(int64(2*time.Millisecond), fn)
	s.Unlock()
	s.Lock()
	want := s.Now() + int64(30*time.Millisecond)
	h.Reschedule(want)
	s.Unlock()
	if at := await(t, fired, "timer rescheduled later"); at < want {
		t.Fatalf("fired at %d, before the rescheduled %d", at, want)
	}
	if n := ringCount(s); n < 2 || n > 3 {
		t.Fatalf("%d bell rings in all, want 2 or 3: the old deadline may cost one empty ring", n)
	}
}

// TestRealFIFOAmongEqualTimes: the wall-clock plane keeps the Scheduler
// contract — callbacks for one instant run in scheduling order, and a
// re-keyed one goes to the back — because it is the loop's own queue.
func TestRealFIFOAmongEqualTimes(t *testing.T) {
	s := NewRealShards(1).Shard(0)
	const n = 64
	var order []int // under the shard lock
	done := make(chan struct{})
	s.Lock()
	at := s.Now() + int64(2*time.Millisecond)
	hs := make([]Timer, n)
	for i := range hs {
		hs[i] = s.At(at, func() {
			order = append(order, i)
			if len(order) == n {
				close(done)
			}
		})
	}
	const moved = 17
	hs[moved].Reschedule(at)
	s.Unlock()
	await(t, done, "the last callback")
	s.Lock()
	defer s.Unlock()
	for k, i := range order {
		want := k
		switch {
		case k == n-1:
			want = moved
		case k >= moved:
			want = k + 1
		}
		if i != want {
			t.Fatalf("callback %d ran in position %d, want %d (order %v)", i, k, want, order)
		}
	}
}

// TestRealLaneFIFOAmongEqualTimes: lanes on a shard keep the same contract —
// lane events and one-shots for one instant run in scheduling order — and a
// stopped shard fires none of its lanes' events, backlog or head, and drops
// lane calls made after Stop.
func TestRealLaneFIFOAmongEqualTimes(t *testing.T) {
	shards := NewRealShards(1)
	s := shards.Shard(0)
	const n = 96
	var order []int // under the shard lock
	done := make(chan struct{})
	s.Lock()
	lanes := []func(int64, func()){LaneFunc(s), LaneFunc(s)}
	at := s.Now() + int64(2*time.Millisecond)
	for i := 0; i < n; i++ {
		fn := func() {
			order = append(order, i)
			if len(order) == n {
				close(done)
			}
		}
		if i%3 == 2 {
			s.At(at, fn)
		} else {
			lanes[i%3](at, fn)
		}
	}
	s.Unlock()
	await(t, done, "the last callback")
	s.Lock()
	for k, i := range order {
		if i != k {
			t.Fatalf("callback %d ran in position %d (order %v)", i, k, order)
		}
	}
	for i := 0; i < 8; i++ {
		lanes[i%2](s.Now()+int64(100*time.Millisecond), func() { t.Error("lane event fired on a stopped shard") })
	}
	rings := s.rings
	s.Unlock()
	shards.Stop()
	s.Lock()
	lanes[0](0, func() { t.Error("lane event scheduled after Stop fired") })
	if s.Pending() != 0 || s.q.Queued() > 2 {
		t.Errorf("after Stop: %d pending, %d queued, want 0 and at most the two lane heads' tombstones",
			s.Pending(), s.q.Queued())
	}
	s.Unlock()
	time.Sleep(150 * time.Millisecond)
	s.Lock()
	if s.Pending() != 0 || s.rings != rings {
		t.Errorf("stopped shard: %d pending, %d rings after Stop, want 0 and 0", s.Pending(), s.rings-rings)
	}
	s.Unlock()
}

// TestRealNothingFiresBeforeFirstEntry: set-up schedules with no lock held,
// and what it schedules — however overdue — waits for the first Lock.
func TestRealNothingFiresBeforeFirstEntry(t *testing.T) {
	s := NewRealShards(1).Shard(0)
	ran := 0
	s.After(0, func() { ran++ })
	s.At(0, func() { ran++ })
	time.Sleep(20 * time.Millisecond)
	if ran != 0 || s.rings != 0 || s.reads != 0 {
		t.Fatalf("before the first entry: %d callbacks ran, %d rings, %d clock reads", ran, s.rings, s.reads)
	}
	s.Lock()
	if ran != 2 {
		t.Errorf("%d callbacks ran on the first Lock, want both", ran)
	}
	if got := s.ClockReads(); got != 2 {
		t.Errorf("%d clock reads for a Lock that fired two events, want 2 (one before each)", got)
	}
	s.Unlock()
}

// TestRealStop: a stopped set holds no runtime timer and drops what was,
// and what is later, scheduled on it.
func TestRealStop(t *testing.T) {
	shards := NewRealShards(2)
	var hs []Timer
	for i := 0; i < shards.N(); i++ {
		s := shards.Shard(i)
		s.Lock()
		h := s.After(int64(100*time.Millisecond), func() { t.Error("event fired on a stopped shard") })
		hs = append(hs, h, s.After(int64(time.Hour), func() {}).Reschedule(s.Now()+int64(101*time.Millisecond)))
		hs = append(hs, s.AtMovable(s.Now()+int64(102*time.Millisecond), func() { t.Error("movable event fired on a stopped shard") }))
		s.Unlock()
	}
	shards.Stop()
	s := shards.Shard(0)
	s.Lock()
	hs = append(hs, s.After(0, func() { t.Error("event scheduled after Stop fired") }))
	if h := s.AtMovable(0, func() { t.Error("movable event scheduled after Stop fired") }); h != (Timer{}) {
		t.Errorf("AtMovable on a stopped shard returned %+v, want the zero Timer", h)
	}
	if h := AtMovableFunc(s)(0, func() { t.Error("movable event scheduled after Stop fired") }); h != (Timer{}) {
		t.Errorf("AtMovableFunc(s) on a stopped shard returned %+v, want the zero Timer", h)
	}
	s.Unlock()
	time.Sleep(150 * time.Millisecond)
	shards.Lock()
	for _, h := range hs {
		if h.Active() {
			t.Error("handle still active on a stopped shard")
		}
		h.Cancel()
	}
	for i := 0; i < shards.N(); i++ {
		if sh := shards.Shard(i); sh.Pending() != 0 || sh.rings != 0 {
			t.Errorf("shard %d after Stop: %d pending, %d rings", i, sh.Pending(), sh.rings)
		}
	}
	shards.Unlock()
	shards.Stop() // idempotent
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

	// An event that falls due while its entry still holds the lock and is
	// then moved: the callback runs once, at the new time.
	s.Lock()
	h := s.After(0, fn)
	time.Sleep(5 * time.Millisecond)
	want = s.Now() + int64(30*time.Millisecond)
	h = h.Reschedule(want)
	s.Unlock()
	select {
	case at := <-fired:
		if at < want {
			t.Fatalf("callback ran at %d, before the rescheduled %d", at, want)
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
// goroutines while others fire — armed movable on even rounds, with After
// (and moved across by the first re-key) on odd ones: under -race this
// covers the bell against every way into the shard (Lock from a worker,
// Lock from the bell, Tick), and the sampled clock against all of them.
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
				fire := func() { entered(); fires++ }
				var h Timer
				if i%2 == 0 {
					h = s.AtMovable(s.wall()+int64(200*time.Microsecond), fire)
				} else {
					h = s.After(int64(200*time.Microsecond), fire)
				}
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
