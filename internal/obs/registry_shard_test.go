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
				r.CounterFunc("reg_shared_total", L("tenant", strconv.Itoa(i)), func() int64 { return 1 })
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
	r.CounterFunc("intern_a_total", l1, func() int64 { return 0 })
	r.CounterFunc("intern_b_total", l2, func() int64 { return 0 })
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
	one := func() int64 { return 1 }
	for i := 0; i < 10; i++ {
		r.CounterFunc("hot_total", L("tenant", strconv.Itoa(i)), one)
	}
	// Tenants 3..9 share the single overflow series, and so does a later
	// registration of an identity past the budget.
	r.CounterFunc("hot_total", L("tenant", "9"), one)
	snap := r.Snapshot()
	if got := SumMetric(snap, "hot_total"); got != 11 {
		t.Fatalf("total across series = %v, want 11", got)
	}
	if v, ok := snap[`hot_total{overflow="true"}`]; !ok || v != 8 {
		t.Fatalf("overflow series = %v (ok=%v), want 8", v, ok)
	}
	// A series is the sum of the functions registered under it, the
	// overflow series of all it absorbed.
	for i := 0; i < 5; i++ {
		r.CounterFunc("read_total", L("tenant", strconv.Itoa(i)), func() int64 { return 2 })
	}
	r.CounterFunc("read_total", L("tenant", "0"), func() int64 { return 3 })
	snap = r.Snapshot()
	if over, t0 := snap[`read_total{overflow="true"}`], snap[`read_total{tenant="0"}`]; over != 4 || t0 != 5 {
		t.Fatalf("counter funcs: overflow = %v, tenant 0 = %v, want 4 and 5", over, t0)
	}
	// Other names still have their own budget.
	r.CounterFunc("cold_total", L("tenant", "x"), one)
	if _, ok := r.Snapshot()[`cold_total{tenant="x"}`]; !ok {
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
		r.CounterFunc("scr_total", L("i", strconv.Itoa(i)), func() int64 { return int64(i) })
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
		r.CounterFunc("bench_ops_total", L("tenant", strconv.Itoa(i)), func() int64 { return 1 })
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

// BenchmarkRegistryRelookup re-resolves existing series in parallel: what
// re-registering a gauge function under an identity it has pays.
func BenchmarkRegistryRelookup(b *testing.B) {
	r := NewRegistry()
	labels := make([]Labels, 1024)
	for i := range labels {
		labels[i] = L("tenant", strconv.Itoa(i))
	}
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			r.GaugeFunc("bench_reg", labels[i&1023], func() float64 { return 1 })
			i++
		}
	})
}
