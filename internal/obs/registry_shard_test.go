package obs

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// TestRegistryShardedConcurrentRegistration hammers registration from many
// goroutines across distinct and shared identities (the name is from when
// the registry had registration shards); the race detector run scoped to
// this package is the real assertion.
func TestRegistryShardedConcurrentRegistration(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Counter("reg_shared_total", L("tenant", strconv.Itoa(i))).Add(1)
				r.GaugeFunc(fmt.Sprintf("reg_g%d", g), L("i", strconv.Itoa(i)), func() float64 { return 1 })
			}
		}(g)
	}
	wg.Wait()
	snap := r.Snapshot()
	if got := SumMetric(snap, "reg_shared_total"); got != 8*200 {
		t.Fatalf("shared counter sum = %v, want %d", got, 8*200)
	}
}

func TestRegistryLabelInterning(t *testing.T) {
	r := NewRegistry()
	// Build two equal labels with distinct backings.
	l1 := L("tenant", "t0", "ssd", "1")
	l2 := Labels(strings.Join([]string{`tenant="t0"`, `ssd="1"`}, ","))
	if unsafe.StringData(string(l1)) == unsafe.StringData(string(l2)) {
		t.Fatal("test setup: labels share storage")
	}
	r.Counter("intern_a_total", l1)
	r.Counter("intern_b_total", l2)
	got := r.Gather()
	if len(got) != 2 || got[0].Labels != l1 || got[1].Labels != l2 {
		t.Fatalf("gathered %+v, want the two counters with their labels", got)
	}
	if unsafe.StringData(string(got[0].Labels)) != unsafe.StringData(string(got[1].Labels)) {
		t.Fatal("two instruments with equal labels keep separate copies of them")
	}
}

func TestRegistryCardinalityOverflow(t *testing.T) {
	r := NewRegistry()
	r.SetMaxSeries(3)
	var last *Counter
	for i := 0; i < 10; i++ {
		c := r.Counter("hot_total", L("tenant", strconv.Itoa(i)))
		c.Add(1)
		last = c
	}
	// Tenants 3..9 share the single overflow series.
	over := r.Counter("hot_total", Labels(`overflow="true"`))
	_ = over // registered identity: the overflow series itself fits the map
	snap := r.Snapshot()
	if got := SumMetric(snap, "hot_total"); got != 10 {
		t.Fatalf("total across series = %v, want 10", got)
	}
	if v, ok := snap[`hot_total{overflow="true"}`]; !ok || v != 7 {
		t.Fatalf("overflow series = %v (ok=%v), want 7", v, ok)
	}
	// Lookups past the budget return the same shared instrument.
	again := r.Counter("hot_total", L("tenant", "9"))
	if again != last {
		t.Fatal("overflowed identity did not resolve to the shared series")
	}
	// Counter functions lose no counts either: a series is the sum of the
	// functions registered under it, the overflow series of all it absorbed.
	for i := 0; i < 5; i++ {
		r.CounterFunc("read_total", L("tenant", strconv.Itoa(i)), func() int64 { return 2 })
	}
	r.CounterFunc("read_total", L("tenant", "0"), func() int64 { return 3 })
	snap = r.Snapshot()
	if over, t0 := snap[`read_total{overflow="true"}`], snap[`read_total{tenant="0"}`]; over != 4 || t0 != 5 {
		t.Fatalf("counter funcs: overflow = %v, tenant 0 = %v, want 4 and 5", over, t0)
	}
	// Other names still have their own budget.
	if r.Counter("cold_total", L("tenant", "x")).Load() != 0 {
		t.Fatal("fresh name affected by another name's overflow")
	}
	// Kind conflicts still panic for in-budget series.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("kind conflict did not panic")
			}
		}()
		r.GaugeFunc("cold_total", L("tenant", "x"), func() float64 { return 0 })
	}()
}

func TestRegistryGatherReusesScratch(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 16; i++ {
		r.Counter("scr_total", L("i", strconv.Itoa(i))).Add(int64(i))
	}
	h := r.Histogram("scr_lat_ns", "")
	h.Record(100)
	first := r.Gather()
	if len(first) != 16+5 {
		t.Fatalf("samples = %d, want 21", len(first))
	}
	second := r.Gather()
	if &first[0] != &second[0] {
		t.Fatal("Gather did not reuse its scratch buffer")
	}
	allocs := testing.AllocsPerRun(100, func() { r.Gather() })
	if allocs != 0 {
		t.Fatalf("steady-state Gather allocates %v, want 0", allocs)
	}
}

func TestRegistryExemplarExport(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("ex_lat_ns", L("ssd", "0"))
	h.Record(5000)
	slot := r.ExemplarSlot("ex_lat_ns", L("ssd", "0"))
	slot.Set(Exemplar{Value: 5000, Span: 42, Tenant: "t7", At: 123})
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	want := `# EXEMPLAR ex_lat_ns{ssd="0"} {span="42",tenant="t7"} 5000 123`
	if !strings.Contains(out, want) {
		t.Fatalf("exposition missing exemplar line %q:\n%s", want, out)
	}
	if ex, ok := slot.Load(); !ok || ex.Span != 42 {
		t.Fatalf("slot load = %+v ok=%v", ex, ok)
	}
}

func BenchmarkGather(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < 256; i++ {
		r.Counter("bench_ops_total", L("tenant", strconv.Itoa(i))).Add(1)
	}
	for i := 0; i < 16; i++ {
		h := r.Histogram("bench_lat_ns", L("ssd", strconv.Itoa(i)))
		for j := 0; j < 100; j++ {
			h.Record(int64(j) * 1000)
		}
	}
	r.Gather() // warm the scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := r.Gather(); len(got) == 0 {
			b.Fatal("empty gather")
		}
	}
}

// BenchmarkRegistryRelookup re-resolves existing series in parallel: what a
// caller that does not cache the instrument pointer pays per record.
func BenchmarkRegistryRelookup(b *testing.B) {
	r := NewRegistry()
	labels := make([]Labels, 1024)
	for i := range labels {
		labels[i] = L("tenant", strconv.Itoa(i))
	}
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			r.Counter("bench_reg_total", labels[i&1023]).Add(1)
			i++
		}
	})
}
