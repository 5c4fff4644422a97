package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeRegistration(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("submits_total", L("ssd", "0"))
	c.Add(1)
	c.Add(2)
	if again := r.Counter("submits_total", L("ssd", "0")); again != c {
		t.Fatal("re-registration returned a different counter")
	}
	if c.Load() != 3 {
		t.Fatalf("counter = %d, want 3", c.Load())
	}
	other := r.Counter("submits_total", L("ssd", "1"))
	if other == c {
		t.Fatal("different labels shared an instrument")
	}

	// A component's own plain field, read at collection time.
	var done int64
	r.CounterFunc("completions_total", L("ssd", "0"), func() int64 { return done })
	done = 41
	r.GaugeFunc("queued", L("ssd", "0"), func() float64 { return 7 })

	snap := r.Snapshot()
	if snap[`submits_total{ssd="0"}`] != 3 {
		t.Fatalf("snapshot counter: %v", snap)
	}
	if snap[`completions_total{ssd="0"}`] != 41 {
		t.Fatalf("snapshot counter func: %v", snap)
	}
	if snap[`queued{ssd="0"}`] != 7 {
		t.Fatalf("snapshot gauge func: %v", snap)
	}
	if got := SumMetric(snap, "submits_total"); got != 3 {
		t.Fatalf("SumMetric = %v, want 3", got)
	}
}

// TestSumMetricDeterministic: a float sum over label sets is the same on
// every call, whatever order the snapshot map iterates in. Summed left to
// right, 0.1, 0.2 and 0.3 give 0.6000000000000001; summed another way, 0.6.
func TestSumMetricDeterministic(t *testing.T) {
	snap := map[string]float64{`wa{ssd="0"}`: 0.1, `wa{ssd="1"}`: 0.2, `wa{ssd="2"}`: 0.3, "other": 1}
	want := SumMetric(snap, "wa")
	for i := 0; i < 200; i++ {
		if got := SumMetric(snap, "wa"); got != want {
			t.Fatalf("SumMetric = %v, then %v", want, got)
		}
	}
}

func TestKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind conflict")
		}
	}()
	r.CounterFunc("x", "", func() int64 { return 0 })
}

func TestPrometheusOutput(t *testing.T) {
	r := NewRegistry()
	r.Help("io_total", "completed IOs")
	r.Counter("io_total", L("ssd", "0", "tenant", "a")).Add(10)
	r.GaugeFunc("depth", "", func() float64 { return 4 })
	r.CounterFunc("read_total", L("ssd", "0"), func() int64 { return 9 })
	h := r.Histogram("lat_ns", L("ssd", "0"))
	for i := int64(1); i <= 100; i++ {
		h.Record(i * 1000)
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP io_total completed IOs",
		"# TYPE io_total counter",
		`io_total{ssd="0",tenant="a"} 10`,
		"# TYPE depth gauge",
		"depth 4",
		"# TYPE read_total counter",
		`read_total{ssd="0"} 9`,
		"# TYPE lat_ns summary",
		`lat_ns{ssd="0",quantile="0.5"}`,
		`lat_ns_count{ssd="0"} 100`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestGatherLockHeld(t *testing.T) {
	r := NewRegistry()
	var mu sync.Mutex
	locked := false
	r.GatherLock = lockerFunc{lock: func() { mu.Lock(); locked = true }, unlock: func() { locked = false; mu.Unlock() }}
	r.GaugeFunc("g", "", func() float64 {
		if !locked {
			t.Error("gauge func ran without GatherLock")
		}
		return 1
	})
	r.Snapshot()
}

type lockerFunc struct{ lock, unlock func() }

func (l lockerFunc) Lock()   { l.lock() }
func (l lockerFunc) Unlock() { l.unlock() }

func TestConcurrentCounters(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n", "")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	if c.Load() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Load())
	}
}

func TestTraceRing(t *testing.T) {
	ring := NewTraceRing(4)
	for i := 0; i < 6; i++ {
		ring.Append(IOTrace{
			Tenant: "t",
			Op:     "read",
			Size:   4096,
			Timeline: Timeline{
				Arrival: int64(i * 10),
				Admit:   int64(i*10 + 1),
				Submit:  int64(i*10 + 3),
				DevDone: int64(i*10 + 8),
				Done:    int64(i*10 + 9),
			},
		})
	}
	if ring.Total() != 6 || ring.Len() != 4 {
		t.Fatalf("total=%d len=%d", ring.Total(), ring.Len())
	}
	snap := ring.Snapshot()
	if snap[0].Arrival != 20 || snap[3].Arrival != 50 {
		t.Fatalf("snapshot order wrong: %+v", snap)
	}
	ph := snap[0].Phases()
	if ph[PhaseQueue] != 1 || ph[PhasePacing] != 2 || ph[PhaseDevice] != 5 || ph[PhaseComplete] != 1 {
		t.Fatalf("spans: %v", ph)
	}

	var b strings.Builder
	if err := ring.WriteJSONLFunc(&b, nil, 0); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("jsonl lines = %d, want 4", len(lines))
	}
	if !strings.Contains(lines[0], `"queue_ns":1`) || !strings.Contains(lines[0], `"device_ns":5`) {
		t.Fatalf("jsonl missing spans: %s", lines[0])
	}
}
