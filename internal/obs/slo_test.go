package obs

import "testing"

func TestSLOBurnRateWindows(t *testing.T) {
	e := NewSLOEngine(SLO{LatencyTargetNs: 1000, LatencyGoal: 0.99})
	tn := e.Tenant("a")
	// 100 IOs over 1ms: 10 bad → bad fraction 0.1, budget 0.01 → burn 10.
	for i := 0; i < 100; i++ {
		now := int64(i) * 10_000
		lat := int64(500)
		if i%10 == 0 {
			lat = 5000 // misses the 1µs objective
		}
		tn.Observe(now, lat, true, 4096)
	}
	now := int64(990_000)
	burn := tn.BurnRate(0, now)
	if burn < 5 || burn > 15 {
		t.Fatalf("short-window burn = %v, want ~10", burn)
	}
	if mf := tn.MetFraction(); mf != 0.9 {
		t.Fatalf("met fraction = %v, want 0.9", mf)
	}
	// After a quiet gap longer than the short (10ms) window, the short
	// window drains to zero burn while the long window and the cumulative
	// counters keep the bad IOs.
	later := now + 20_000_000
	tn.Observe(later, 500, true, 4096)
	if burn := tn.BurnRate(0, later); burn != 0 {
		t.Fatalf("post-gap short-window burn = %v, want 0", burn)
	}
	if burn := tn.BurnRate(2, later); burn < 5 {
		t.Fatalf("post-gap long-window burn = %v, want the 10 bad IOs still in it", burn)
	}
	if tn.good != 91 || tn.bad != 10 {
		t.Fatalf("totals = %d/%d, want 91/10", tn.good, tn.bad)
	}
}

func TestSLOFailedIOsAreBad(t *testing.T) {
	e := NewSLOEngine(SLO{LatencyTargetNs: 0, LatencyGoal: 0.9})
	tn := e.Tenant("a")
	tn.Observe(0, 100, false, 0) // error completion: bad even with no latency target
	tn.Observe(0, 100, true, 0)
	if tn.good != 1 || tn.bad != 1 {
		t.Fatalf("totals = %d/%d, want 1/1", tn.good, tn.bad)
	}
}

func TestSLOReportCorrelatesEvents(t *testing.T) {
	e := NewSLOEngine(SLO{LatencyTargetNs: 1000, LatencyGoal: 0.999})
	log := NewEventLog(8)
	e.SetEventLog(log)
	tn := e.Tenant("victim")
	e.Tenant("idle")
	log.Append(100_000, "ssd-brownout", "ssd=1 x200", true)
	for i := 0; i < 100; i++ {
		tn.Observe(int64(i)*1000, 50_000, true, 4096) // all miss the objective
	}
	rep := e.Report(100_000)
	if len(rep.Tenants) != 2 {
		t.Fatalf("tenants in report = %d, want 2", len(rep.Tenants))
	}
	victim := rep.Tenants[0]
	if victim.Tenant != "victim" || !victim.Burning {
		t.Fatalf("victim report = %+v, want burning", victim)
	}
	if len(victim.Correlated) != 1 || victim.Correlated[0] != "ssd-brownout" {
		t.Fatalf("correlated = %v, want [ssd-brownout]", victim.Correlated)
	}
	idle := rep.Tenants[1]
	if idle.Burning || len(idle.Correlated) != 0 {
		t.Fatalf("idle tenant flagged burning: %+v", idle)
	}
	if len(rep.Events) != 1 {
		t.Fatalf("events in report = %d, want 1", len(rep.Events))
	}
}

func TestSLOReset(t *testing.T) {
	e := NewSLOEngine(SLO{})
	tn := e.Tenant("a")
	tn.Observe(10, 1, true, 100)
	e.Reset(500)
	if tn.good != 0 || tn.bad != 0 || tn.bytes != 0 {
		t.Fatalf("totals after reset = %d/%d/%d", tn.good, tn.bad, tn.bytes)
	}
	if burn := tn.BurnRate(0, 600); burn != 0 {
		t.Fatalf("burn after reset = %v", burn)
	}
}

func TestSLOObserveAllocFree(t *testing.T) {
	e := NewSLOEngine(SLO{})
	tn := e.Tenant("a")
	var now int64
	allocs := testing.AllocsPerRun(1000, func() {
		now += 100_000
		tn.Observe(now, 500, true, 4096)
	})
	if allocs != 0 {
		t.Fatalf("SLOTenant.Observe allocates %v per call, want 0", allocs)
	}
}

func TestEventLogWraparound(t *testing.T) {
	l := NewEventLog(3)
	for i := 0; i < 5; i++ {
		l.Append(int64(i), "k", "", true)
	}
	snap := l.Snapshot()
	if len(snap) != 3 || snap[0].At != 2 || snap[2].At != 4 {
		t.Fatalf("snapshot = %+v, want [2,3,4] oldest-first", snap)
	}
	if l.Total() != 5 {
		t.Fatalf("total = %d, want 5", l.Total())
	}
}
