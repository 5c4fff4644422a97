package main

import (
	"bytes"
	"math"
	"os"
	"regexp"
	"testing"

	"gimbal/internal/nvme"
	"gimbal/internal/sim"
	"gimbal/internal/stats"
)

// fakeClock drives a recorder through a scripted timeline.
type fakeClock struct{ t int64 }

func (c *fakeClock) recorder() *recorder {
	r := newRecorder()
	r.now = func() int64 { return c.t }
	return r
}

func TestSpanSelfTimeNested(t *testing.T) {
	var c fakeClock
	r := c.recorder()
	at := func(t int64) { c.t = t }

	at(0)
	r.push(layerSim, 0)
	at(10)
	r.push(layerTarget, 7)
	at(20)
	r.push(layerNullDev, 0)
	at(30)
	r.pop() // nulldev 20..30
	at(40)
	r.pop() // target 10..40
	at(50)
	r.push(layerWorkload, 0)
	at(60)
	r.pop() // workload 50..60
	at(100)
	r.pop() // sim 0..100

	want := map[layer]int64{layerSim: 60, layerTarget: 20, layerNullDev: 10, layerWorkload: 10}
	var sum int64
	for l := layer(0); l < numLayers; l++ {
		if r.selfNs[l] != want[l] {
			t.Errorf("%s self = %d ns, want %d", l, r.selfNs[l], want[l])
		}
		sum += r.selfNs[l]
	}
	if sum != r.rootNs || sum != 100 {
		t.Errorf("layer selfs sum to %d, root spans to %d, want 100", sum, r.rootNs)
	}
	if r.children[layerSim] != 2 || r.children[layerTarget] != 1 || r.children[layerNullDev] != 0 {
		t.Errorf("children = %v", r.children)
	}
	// The request id given at the target span is inherited below it only.
	io := map[string]int64{}
	for _, s := range r.raw {
		io[s.Name] = s.IO
	}
	if io["target"] != 7 || io["nulldev"] != 7 || io["workload"] != 0 {
		t.Errorf("request ids = %v", io)
	}
	// Net of a recorder cost of 1 ns inside and 2 ns to the parent.
	if got := r.netSelfNs(layerSim, 1, 2); got != 60-1-2*2 {
		t.Errorf("net sim self = %v", got)
	}
}

func TestSpanLoopDispatchedCallback(t *testing.T) {
	var c fakeClock
	r := c.recorder()
	loop := sim.NewLoop()
	ssd := newTagSched(loop, r, layerSSD)

	// The target layer, inside the loop, asks the ssd layer's scheduler for
	// a callback; the callback's 5 ns belong to ssd, not to target or sim.
	r.push(layerSim, 0)
	c.t = 1
	r.push(layerTarget, 3)
	ssd.After(100, func() { c.t += 5 })
	c.t = 2
	r.pop()
	c.t = 10
	loop.Run()
	c.t += 1
	r.pop()

	if ssd.events != 1 {
		t.Errorf("events = %d, want 1", ssd.events)
	}
	if r.selfNs[layerSSD] != 5 || r.selfNs[layerTarget] != 1 {
		t.Errorf("ssd self %d (want 5), target self %d (want 1)", r.selfNs[layerSSD], r.selfNs[layerTarget])
	}
	var sum int64
	for _, v := range r.selfNs {
		sum += v
	}
	if sum != r.rootNs {
		t.Errorf("selfs sum to %d, root to %d", sum, r.rootNs)
	}
	for _, s := range r.raw {
		if s.Name == "ssd" && (s.SchedBy == 0 || s.IO != 3) {
			t.Errorf("dispatched span lost its cause: %+v", s)
		}
	}
}

func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    uint64
		want float64
	}{{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {10_000, 0.999}, {100_000, 0.9999}} {
		if got := supportedPercentile(c.n); got != c.want {
			t.Errorf("supportedPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	h := newFineHist()
	for i := 0; i < 999; i++ {
		h.record(1000)
	}
	if h.us(0.99) != 0 || h.us(0.9) == 0 {
		t.Errorf("999 samples: p99 %v (want absent), p90 %v (want present)", h.us(0.99), h.us(0.9))
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) for the same inputs.
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{10, 20, 30, 40, 50}, [3]float64{15, 30, 45}},
	} {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
	if got := iqrPct([]float64{10, 20, 30, 40, 50}); got != 100 {
		t.Errorf("iqrPct = %v, want 100", got)
	}
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(40 - i) // 40, 39, ... 1
	}
	if lo := fastBatch(xs); lo != 3 {
		t.Errorf("fastBatch of 1..40 = %v, want the third-fastest", lo)
	}
	if fastBatch(xs[:15]) != 27 || fastBatch(xs[:1]) != 40 || fastBatch(nil) != 0 {
		t.Error("fastBatch of short inputs")
	}
}

// The benchmark takes f-Util from internal/stats; this pins the §5.1
// definition the README states.
func TestFUtil(t *testing.T) {
	if got := stats.FUtil(50, 200, 4); got != 1 {
		t.Errorf("FUtil(50, 200, 4) = %v, want 1", got)
	}
	if got := stats.FUtil(25, 200, 4); got != 0.5 {
		t.Errorf("FUtil(25, 200, 4) = %v, want 0.5", got)
	}
	if stats.FUtil(1, 0, 4) != 0 || stats.FUtil(1, 100, 0) != 0 {
		t.Error("undefined f-Util must read 0")
	}
}

func TestFineHistQuantiles(t *testing.T) {
	h := newFineHist()
	for v := int64(1); v <= 100_000; v++ {
		h.record(v * 10)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 500_000}, {0.99, 990_000}, {0.999, 999_000}} {
		if got := h.quantile(c.q); math.Abs(got-c.want)/c.want > 0.001 {
			t.Errorf("quantile(%v) = %v, want %v within 0.1%%", c.q, got, c.want)
		}
	}
	for _, v := range []int64{0, 1, 1023, 1024, 1025, 123_456_789, 1 << 40} {
		lo, hi := fineBounds(fineIndex(v))
		if v < lo || v >= hi {
			t.Errorf("value %d indexed to bucket [%d, %d)", v, lo, hi)
		}
	}
	g := newFineHist()
	g.merge(h)
	if g.total != h.total || g.quantile(0.5) != h.quantile(0.5) {
		t.Error("merge lost samples")
	}
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, specJSON()) {
		t.Error("BENCHMARK.json is stale: regenerate it with `go run . -spec > ../BENCHMARK.json`")
	}
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != 4 || len(spec.EndToEnd) != 10 || len(spec.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer metrics", len(spec.Workloads), len(spec.EndToEnd), len(spec.PerLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q", n)
		}
	}
	for _, w := range spec.Workloads {
		check(w.Name)
		if _, sim := simDefs[w.Name]; !sim && w.Name != liveName {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
	for _, m := range spec.EndToEnd {
		check(m.Name)
	}
	for _, m := range spec.PerLayer {
		check(m.Name)
	}
	if len(onDisk) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(onDisk))
	}
}

func TestSpecValidateRejects(t *testing.T) {
	for name, mutate := range map[string]func(*benchSpec){
		"bound too wide":   func(s *benchSpec) { s.EndToEnd[1].Bound = 0.3 },
		"duplicate name":   func(s *benchSpec) { s.PerLayer[0].Name = s.EndToEnd[0].Name },
		"bad name":         func(s *benchSpec) { s.PerLayer[0].Name = "a b" },
		"no setup_s":       func(s *benchSpec) { s.EndToEnd[0].Name = "startup_s" },
		"one workload":     func(s *benchSpec) { s.Workloads = s.Workloads[:1] },
		"long run_seconds": func(s *benchSpec) { s.RunSeconds = 61 },
	} {
		s := currentSpec()
		s.EndToEnd = append([]metricDef(nil), s.EndToEnd...)
		s.PerLayer = append([]layerDef(nil), s.PerLayer...)
		mutate(&s)
		if s.validate() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestAgree(t *testing.T) {
	lower := metricDef{Name: "host_ns_per_io", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "rd_iops", Better: "higher", Bound: 0.10}
	a := []float64{100, 101, 99, 100, 102}
	if g := agree(a, []float64{104, 105, 103, 104, 106}, lower, 0.10); !g.ok || math.Abs(g.gap-0.04) > 1e-9 {
		t.Errorf("4%% worse under a 10%% cell bound: %+v", g)
	}
	if g := agree(a, []float64{106, 107, 105, 106, 108}, lower, 0.10); g.ok {
		t.Errorf("6%% worse is over half a 10%% cell bound, yet passed: %+v", g)
	}
	if g := agree(a, []float64{94, 95, 93, 94, 96}, higher, 0.10); g.ok || g.gap <= 0 {
		t.Errorf("a 6%% lower rate passed: %+v", g)
	}
	// One build measured twice must agree in both directions: a second set
	// that reads much better is a broken measurement, not an improvement.
	if g := agree(a, []float64{60, 61, 59, 60, 62}, lower, 0.10); g.ok || g.gap >= 0 {
		t.Errorf("the same code reading 40%% better passed: %+v", g)
	}
	if g := agree(a, []float64{140, 141, 139, 140, 142}, higher, 0.10); g.ok || g.gap >= 0 {
		t.Errorf("the same code reading a 40%% higher rate passed: %+v", g)
	}
	// A simulated-time cell is held to its own bound, not the metric's.
	if g := agree(a, []float64{102, 103, 101, 102, 104}, metricDef{Name: "rd_p99_us", Better: "lower", Bound: 0.25}, 0.02); g.ok {
		t.Errorf("2%% apart under a 2%% cell bound passed: %+v", g)
	}
	wide := []float64{80, 100, 120, 90, 110}
	if g := agree(wide, wide, lower, 0.10); g.ok {
		t.Errorf("a 40%% spread passed a 10%% bound: %+v", g)
	}
	if g := agree(wide, wide, metricDef{Name: "setup_s", Better: "lower", Bound: 0.10}, 0.10); !g.ok {
		t.Errorf("setup_s is exempt from the spread rule: %+v", g)
	}
}

func TestCellBounds(t *testing.T) {
	for _, m := range endToEnd {
		for _, w := range workloadDefs {
			c, err := cellBound(w.Name, m.Name)
			if err != nil {
				t.Fatal(err)
			}
			if c <= 0 || c > m.Bound {
				t.Errorf("%s/%s: cell bound %v outside (0, %v]", w.Name, m.Name, c, m.Bound)
			}
		}
		if m.Name != "setup_s" && m.Bound > endToEnd[0].Bound {
			t.Errorf("%s has a wider bound than setup_s", m.Name)
		}
	}
	if _, err := cellBound(liveName, "no_such_metric"); err == nil {
		t.Error("unknown metric accepted")
	}
}

func TestYardstick(t *testing.T) {
	var none *yardstick
	if none.tick() != 1 {
		t.Error("a nil yardstick must read 1")
	}
	none.close()
	y, err := newYardstick()
	if err != nil {
		t.Fatal(err)
	}
	defer y.close()
	if ns := y.kernel(y.small, 10_000); ns <= 0 {
		t.Errorf("kernel took %v ns per event", ns)
	}
	if len(y.heap) != yardHeap {
		t.Errorf("the kernel must keep %d events pending, has %d", yardHeap, len(y.heap))
	}
	if s := y.tick(); s <= 0 || len(y.ticks) != 1 || y.ticks[0] != s {
		t.Errorf("tick = %v, recorded %v", s, y.ticks)
	}
}

func TestSlowBatchPct(t *testing.T) {
	var bs []liveBatch
	for _, ns := range []int64{100, 100, 101, 99, 100, 130, 100, 119} {
		bs = append(bs, liveBatch{wallNs: ns, ios: 1, slow: 1})
	}
	if got := slowBatchPct(bs); got != 12.5 {
		t.Errorf("slowBatchPct = %v, want 12.5 (one batch of eight over 1.2x the median)", got)
	}
}

// bounceTarget completes every IO at once, every third one with an error.
type bounceTarget struct{ n int }

func (b *bounceTarget) Submit(io *nvme.IO) {
	b.n++
	st := nvme.StatusOK
	if b.n%3 == 0 {
		st = nvme.StatusDeviceBusy
	}
	io.Done(io, nvme.Completion{Status: st})
}

func TestClientSeamAccounting(t *testing.T) {
	st := &tenantStats{}
	c := &clientSeam{inner: &bounceTarget{}, loop: sim.NewLoop(), st: st, rd: newFineHist(), wr: newFineHist()}
	seen := 0
	for i := 0; i < 9; i++ {
		op := nvme.OpRead
		if i%2 == 1 {
			op = nvme.OpWrite
		}
		io := &nvme.IO{Op: op, Size: 4096, Done: func(*nvme.IO, nvme.Completion) { seen++ }}
		c.Submit(io)
	}
	if seen != 9 || st.attempted != 9 || st.failed != 3 || st.completed != 6 {
		t.Errorf("seen %d, stats %+v", seen, *st)
	}
	if st.rdBytes+st.wrBytes != 6*4096 || c.rd.total+c.wr.total != 6 {
		t.Errorf("bytes %d+%d, samples %d+%d", st.rdBytes, st.wrBytes, c.rd.total, c.wr.total)
	}
}
