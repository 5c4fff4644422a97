package workload

import (
	"testing"

	"gimbal/internal/nvme"
	"gimbal/internal/sim"
)

// fakeSched is a ScenarioSched that completes every IO after a fixed
// service delay, recording per-tenant traffic.
type fakeSched struct {
	loop       *sim.Loop
	delay      int64
	registered map[*nvme.Tenant]bool
	perTenant  map[int]int // tenant ID -> completed IOs
	queued     map[*nvme.Tenant][]*nvme.IO
	enqueued   int
}

func newFakeSched(loop *sim.Loop, delay int64) *fakeSched {
	return &fakeSched{
		loop:       loop,
		delay:      delay,
		registered: make(map[*nvme.Tenant]bool),
		perTenant:  make(map[int]int),
		queued:     make(map[*nvme.Tenant][]*nvme.IO),
	}
}

func (f *fakeSched) Register(t *nvme.Tenant) { f.registered[t] = true }

func (f *fakeSched) Enqueue(io *nvme.IO) {
	if !f.registered[io.Tenant] {
		panic("enqueue for unregistered tenant")
	}
	f.enqueued++
	f.queued[io.Tenant] = append(f.queued[io.Tenant], io)
	f.loop.After(f.delay, func() {
		q := f.queued[io.Tenant]
		if len(q) == 0 || q[0] != io {
			// Aborted by churn teardown before service; drop.
			return
		}
		f.queued[io.Tenant] = q[1:]
		f.perTenant[io.Tenant.ID]++
		io.Done(io, nvme.Completion{Status: nvme.StatusOK})
	})
}

func (f *fakeSched) Unregister(t *nvme.Tenant) []*nvme.IO {
	delete(f.registered, t)
	orphans := f.queued[t]
	delete(f.queued, t)
	return orphans
}

func scenarioLoop(cfg ScenarioConfig, seed uint64, span int64) (*Scenario, *fakeSched) {
	loop := sim.NewLoop()
	sched := newFakeSched(loop, 100_000) // 100us service
	s := NewScenario(loop, sim.NewRNG(seed), cfg, sched)
	s.Start(span)
	loop.RunUntil(span + 10_000_000)
	return s, sched
}

func TestScenarioOfferedLoad(t *testing.T) {
	cfg := DefaultScenarioConfig()
	cfg.Tenants = 500
	cfg.RateIOPS = 100_000
	cfg.Span = 1 << 30
	const span = int64(1e9) // 1s
	s, _ := scenarioLoop(cfg, 1, span)
	// ~100k arrivals expected over 1s; Poisson sd ~316, allow 5%.
	got := float64(s.Completed)
	if got < 95_000 || got > 105_000 {
		t.Fatalf("completed %v IOs over 1s at 100k IOPS, want ~100k", got)
	}
	if s.Errored != 0 || s.Churned != 0 {
		t.Fatalf("unexpected errors/churn: %d %d", s.Errored, s.Churned)
	}
}

func TestScenarioZipfSkew(t *testing.T) {
	cfg := DefaultScenarioConfig()
	cfg.Tenants = 10_000
	cfg.RateIOPS = 200_000
	cfg.Span = 1 << 30
	s, sched := scenarioLoop(cfg, 2, int64(1e9))
	// Heavy tail: the busiest tenant should dwarf the median; most of the
	// population should see no traffic at all in one second.
	max, active := 0, 0
	for _, n := range sched.perTenant {
		if n > max {
			max = n
		}
		active++
	}
	if active >= cfg.Tenants {
		t.Fatalf("all %d tenants active — distribution not heavy-tailed", active)
	}
	if max < 100 {
		t.Fatalf("hottest tenant got %d IOs, want a hot head", max)
	}
	_ = s
}

func TestScenarioChurnReplacesTenants(t *testing.T) {
	cfg := DefaultScenarioConfig()
	cfg.Tenants = 200
	cfg.RateIOPS = 50_000
	cfg.ChurnPerSec = 500
	cfg.Span = 1 << 30
	s, sched := scenarioLoop(cfg, 3, int64(1e9))
	if s.Churned < 400 || s.Churned > 600 {
		t.Fatalf("churned %d tenants over 1s at 500/s, want ~500", s.Churned)
	}
	// Population size is stable; registered set is exactly the live slots.
	if len(sched.registered) != cfg.Tenants {
		t.Fatalf("registered = %d, want %d", len(sched.registered), cfg.Tenants)
	}
	for _, tn := range s.tenants {
		if !sched.registered[tn] {
			t.Fatal("live slot holds unregistered tenant")
		}
	}
	// Churn aborts in-flight work through the completion path.
	if s.Errored == 0 {
		t.Fatal("expected some aborted IOs from churn teardown")
	}
}

func TestScenarioDeterministic(t *testing.T) {
	cfg := DefaultScenarioConfig()
	cfg.Tenants = 300
	cfg.RateIOPS = 80_000
	cfg.ChurnPerSec = 200
	cfg.Span = 1 << 28
	a, _ := scenarioLoop(cfg, 7, int64(5e8))
	b, _ := scenarioLoop(cfg, 7, int64(5e8))
	if a.Completed != b.Completed || a.Shed != b.Shed || a.Errored != b.Errored || a.Churned != b.Churned {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	fa, fb := a.Fairness(), b.Fairness()
	if fa != fb {
		t.Fatalf("fairness diverged: %+v vs %+v", fa, fb)
	}
}

func TestScenarioFairnessAccounting(t *testing.T) {
	cfg := DefaultScenarioConfig()
	cfg.Tenants = 50
	cfg.Theta = 0.5 // flatter: most slots measured
	cfg.RateIOPS = 100_000
	cfg.Span = 1 << 28
	s, _ := scenarioLoop(cfg, 5, int64(1e9))
	f := s.Fairness()
	if f.SlotsMeasured == 0 {
		t.Fatal("no slots measured")
	}
	// Fixed service time: every slot's mean is the same, ratio ~1.
	if f.Ratio < 0.99 || f.Ratio > 1.6 {
		t.Fatalf("fairness ratio %.2f with uniform service, want ~1 (%+v)", f.Ratio, f)
	}
	if f.MeanP50 <= 0 || f.MeanP999 < f.MeanP50 {
		t.Fatalf("bad quantiles: %+v", f)
	}
}

func TestScenarioShedsWhenSaturated(t *testing.T) {
	cfg := DefaultScenarioConfig()
	cfg.Tenants = 100
	cfg.RateIOPS = 1_000_000
	cfg.Span = 1 << 28
	// 1M IOPS against a 10ms service keeps ~10k IOs outstanding: past
	// maxInflight, so arrivals shed.
	loop := sim.NewLoop()
	s := NewScenario(loop, sim.NewRNG(6), cfg, newFakeSched(loop, 10_000_000))
	s.Start(20_000_000)
	loop.RunUntil(40_000_000)
	if s.Shed == 0 {
		t.Fatalf("1M IOPS against 10ms service and %d inflight must shed", maxInflight)
	}
	if s.Inflight() != 0 {
		t.Fatalf("inflight %d after drain", s.Inflight())
	}
}

// lateSched is a transport in front of a fakeSched: each IO reaches the
// scheduler hop later, and the scheduler stamps its own Arrival there.
type lateSched struct {
	*fakeSched
	hop int64
}

func (l lateSched) Enqueue(io *nvme.IO) {
	l.loop.After(l.hop, func() {
		io.Arrival = l.loop.Now()
		l.fakeSched.Enqueue(io)
	})
}

// TestScenarioTimesFromIssue: a Scenario times its IOs from its own Issued
// stamp, as the Worker does, so the hop in front of the scheduler counts.
func TestScenarioTimesFromIssue(t *testing.T) {
	loop := sim.NewLoop()
	cfg := ScenarioConfig{Tenants: 8, Theta: 0.99, RateIOPS: 10_000, IOSize: 4096, ReadRatio: 1, Span: 1 << 30}
	sc := NewScenario(loop, sim.NewRNG(1), cfg, lateSched{newFakeSched(loop, 100_000), 5_000})
	sc.Start(10 * sim.Millisecond)
	loop.Run()
	if sc.Completed == 0 || sc.Lat.Min() != 105_000 || sc.Lat.Max() != 105_000 {
		t.Fatalf("%d IOs, latency %d..%d ns, want 105000 (hop + service)", sc.Completed, sc.Lat.Min(), sc.Lat.Max())
	}
}
