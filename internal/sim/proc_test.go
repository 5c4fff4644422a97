package sim

import (
	"testing"
	"time"
)

func TestProcSleepAdvancesVirtualTime(t *testing.T) {
	l := NewLoop()
	var at []int64
	l.Spawn("w", func(p *Proc) {
		p.Sleep(100)
		at = append(at, p.Now())
		p.Sleep(250)
		at = append(at, p.Now())
	})
	l.Run()
	if len(at) != 2 || at[0] != 100 || at[1] != 350 {
		t.Fatalf("wakeups at %v, want [100 350]", at)
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		l := NewLoop()
		var trace []string
		for _, w := range []struct {
			name string
			step int64
		}{{"a", 10}, {"b", 15}, {"c", 10}} {
			w := w
			l.Spawn(w.name, func(p *Proc) {
				for i := 0; i < 4; i++ {
					p.Sleep(w.step)
					trace = append(trace, w.name)
				}
			})
		}
		l.Run()
		return trace
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); len(got) != len(first) {
			t.Fatal("nondeterministic trace length")
		} else {
			for j := range got {
				if got[j] != first[j] {
					t.Fatalf("nondeterministic trace: run %d: %v vs %v", i, got, first)
				}
			}
		}
	}
	// a and c both wake at t=10; a spawned first, so a precedes c.
	if first[0] != "a" || first[1] != "c" || first[2] != "b" {
		t.Fatalf("unexpected interleaving: %v", first)
	}
}

func TestGateReleasesWaiters(t *testing.T) {
	l := NewLoop()
	var g Gate
	var got []any
	for i := 0; i < 3; i++ {
		l.Spawn("waiter", func(p *Proc) {
			got = append(got, g.Wait(p))
		})
	}
	l.After(50, func() { g.Fire(7) })
	l.Run()
	if len(got) != 3 {
		t.Fatalf("released %d waiters, want 3", len(got))
	}
	for _, v := range got {
		if v != 7 {
			t.Fatalf("waiter got %v, want 7", v)
		}
	}
}

func TestGateWaitAfterFireReturnsImmediately(t *testing.T) {
	l := NewLoop()
	var g Gate
	g.Fire("x")
	done := false
	l.Spawn("late", func(p *Proc) {
		if v := g.Wait(p); v != "x" {
			t.Errorf("late waiter got %v", v)
		}
		done = true
	})
	l.Run()
	if !done {
		t.Fatal("late waiter never ran")
	}
}

func TestProcWakeFromEvent(t *testing.T) {
	l := NewLoop()
	var p *Proc
	var got any
	p = l.Spawn("sleeper", func(p *Proc) {
		got = p.Park()
	})
	l.After(20, func() { p.Wake("ping") })
	l.Run()
	if got != "ping" {
		t.Fatalf("Park returned %v, want ping", got)
	}
	if !p.Done() {
		t.Fatal("proc not done after Run")
	}
}

func TestRealSchedulerFiresCallbacks(t *testing.T) {
	s := NewRealShards(1).Shard(0)
	done := make(chan struct{})
	s.Lock()
	s.After(int64(time.Millisecond), func() { close(done) })
	s.Unlock()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("real scheduler callback never fired")
	}
	if s.Now() <= 0 {
		t.Fatal("real clock did not advance")
	}
}

func TestRealSchedulerCancel(t *testing.T) {
	s := NewRealShards(1).Shard(0)
	fired := make(chan struct{}, 1)
	e := s.After(int64(5*time.Millisecond), func() { fired <- struct{}{} })
	s.Lock()
	e.Cancel()
	s.Unlock()
	select {
	case <-fired:
		t.Fatal("cancelled callback fired")
	case <-time.After(30 * time.Millisecond):
	}
}
