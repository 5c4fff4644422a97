package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestHistogramBucketRoundTrip(t *testing.T) {
	// bucketValue(bucketIndex(v)) must stay within the sub-bucket relative
	// error for a wide range of magnitudes.
	for _, v := range []int64{0, 1, 63, 64, 100, 1000, 12345, 1e6, 5e7, 123456789, 1e12} {
		idx := bucketIndex(v)
		got := bucketValue(idx)
		relErr := math.Abs(float64(got-v)) / math.Max(float64(v), 1)
		if relErr > 1.0/32 {
			t.Errorf("value %d -> bucket %d -> %d (rel err %.3f)", v, idx, got, relErr)
		}
	}
}

func TestHistogramBucketMonotonic(t *testing.T) {
	prev := -1
	for v := int64(0); v < 1<<20; v += 97 {
		idx := bucketIndex(v)
		if idx < prev {
			t.Fatalf("bucketIndex not monotonic at %d: %d < %d", v, idx, prev)
		}
		prev = idx
	}
}

func TestHistogramQuantilesAgainstExact(t *testing.T) {
	h := NewHistogram()
	var raw []int64
	// A skewed synthetic distribution typical of storage latencies.
	for i := 0; i < 100000; i++ {
		v := int64(80_000 + (i%100)*1_000)
		if i%100 == 99 {
			v = 2_000_000 // tail spikes
		}
		h.Record(v)
		raw = append(raw, v)
	}
	exact := Percentiles(raw, 0.5, 0.99, 0.999)
	for i, got := range []int64{h.P50(), h.P99(), h.P999()} {
		relErr := math.Abs(float64(got-exact[i])) / float64(exact[i])
		if relErr > 0.05 {
			t.Errorf("quantile %d: hist=%d exact=%d (rel err %.3f)", i, got, exact[i], relErr)
		}
	}
}

func TestHistogramMeanMinMax(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int64{10, 20, 30} {
		h.Record(v)
	}
	if h.Mean() != 20 {
		t.Fatalf("mean = %v", h.Mean())
	}
	if h.Min() != 10 || h.Max() != 30 {
		t.Fatalf("min/max = %d/%d", h.Min(), h.Max())
	}
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Mean() != 0 || h.P99() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := int64(1); i <= 100; i++ {
		a.Record(i * 1000)
	}
	for i := int64(101); i <= 200; i++ {
		b.Record(i * 1000)
	}
	a.Merge(b)
	if a.Count() != 200 {
		t.Fatalf("merged count = %d", a.Count())
	}
	if a.Min() != 1000 || a.Max() != 200000 {
		t.Fatalf("merged min/max = %d/%d", a.Min(), a.Max())
	}
	if m := a.Mean(); math.Abs(m-100500) > 1 {
		t.Fatalf("merged mean = %v", m)
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	h.Record(5000)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Fatal("reset did not clear histogram")
	}
}

// Property: quantile is monotone in q and bounded by min/max.
func TestHistogramQuantileMonotoneProperty(t *testing.T) {
	f := func(vals []uint32) bool {
		if len(vals) == 0 {
			return true
		}
		h := NewHistogram()
		for _, v := range vals {
			h.Record(int64(v))
		}
		prev := int64(-1)
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			v := h.Quantile(q)
			if v < prev || v < h.Min() || v > h.Max() {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEWMA(t *testing.T) {
	e := NewEWMA(0.5)
	if e.Initialized() {
		t.Fatal("fresh EWMA claims initialized")
	}
	e.Update(100)
	if e.Value() != 100 {
		t.Fatalf("first sample should initialize: %v", e.Value())
	}
	e.Update(200)
	if e.Value() != 150 {
		t.Fatalf("ewma = %v, want 150", e.Value())
	}
	e.Update(150)
	if e.Value() != 150 {
		t.Fatalf("ewma = %v, want 150", e.Value())
	}
}

func TestEWMAConverges(t *testing.T) {
	e := NewEWMA(0.25)
	for i := 0; i < 100; i++ {
		e.Update(42)
	}
	if math.Abs(e.Value()-42) > 1e-9 {
		t.Fatalf("EWMA did not converge: %v", e.Value())
	}
}

func TestMeter(t *testing.T) {
	m := NewMeter(0)
	m.Add(4096)
	m.Add(4096)
	// 8192 bytes over 1ms = 8.192 MB/s.
	if bw := m.BandwidthMBps(1e6); math.Abs(bw-8.192) > 1e-9 {
		t.Fatalf("bandwidth = %v", bw)
	}
	m.Reset(1e6)
	if m.Bytes() != 0 {
		t.Fatal("reset failed")
	}
	if m.BandwidthMBps(1e6) != 0 {
		t.Fatal("zero interval should report 0")
	}
}

func TestFUtil(t *testing.T) {
	// Worker achieving exactly its fair share scores 1.
	if got := FUtil(100, 1600, 16); math.Abs(got-1) > 1e-9 {
		t.Fatalf("fUtil = %v, want 1", got)
	}
	if got := FUtil(200, 1600, 16); math.Abs(got-2) > 1e-9 {
		t.Fatalf("fUtil = %v, want 2", got)
	}
	if FUtil(100, 0, 16) != 0 {
		t.Fatal("zero standalone should yield 0")
	}
}

func TestJainIndex(t *testing.T) {
	if j := JainIndex([]float64{1, 1, 1, 1}); math.Abs(j-1) > 1e-9 {
		t.Fatalf("equal allocation Jain = %v", j)
	}
	j := JainIndex([]float64{1, 0, 0, 0})
	if math.Abs(j-0.25) > 1e-9 {
		t.Fatalf("single-user Jain = %v, want 0.25", j)
	}
	if JainIndex(nil) != 0 {
		t.Fatal("empty Jain should be 0")
	}
}

// TestRecordAllMatchesRecord: folding a batch with RecordAll leaves every
// field of the histogram, the sum's bits included, where recording the
// batch sample by sample does. The batches run the sum across 2^53, where
// float64 additions start to round and RecordAll must make them in order,
// and include negative samples, samples past 2^53 and a batch of 2^10.
func TestRecordAllMatchesRecord(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, c := range []struct {
		name      string
		n, rounds int
		sample    func() int64
	}{
		{"latencies", 256, 40, func() int64 { return rng.Int63n(5_000_000) - 1000 }},
		{"across 2^53", 256, 12, func() int64 { return 1<<45 + rng.Int63n(1<<45) }},
		{"odd past 2^53", 17, 8, func() int64 { return 1<<53 + 2*rng.Int63n(1<<40) + 1 }},
		{"batch of 2^10", 1 << 10, 4, func() int64 { return rng.Int63n(1 << 44) }},
		{"mixed", 100, 30, func() int64 {
			if rng.Intn(50) == 0 {
				return 1<<52 + rng.Int63n(1<<52)
			}
			return rng.Int63n(1000)
		}},
	} {
		batch, one := NewHistogram(), NewHistogram()
		for r := 0; r < c.rounds; r++ {
			vs := make([]int64, rng.Intn(c.n)+1)
			for i := range vs {
				vs[i] = c.sample()
				one.Record(vs[i])
			}
			batch.RecordAll(vs)
			if math.Float64bits(batch.sum) != math.Float64bits(one.sum) || batch.total != one.total ||
				batch.min != one.min || batch.max != one.max || !slices.Equal(batch.counts, one.counts) {
				t.Fatalf("%s, batch %d: RecordAll leaves sum %v (%#x) n %d min %d max %d; Record %v (%#x) n %d min %d max %d",
					c.name, r, batch.sum, math.Float64bits(batch.sum), batch.total, batch.min, batch.max,
					one.sum, math.Float64bits(one.sum), one.total, one.min, one.max)
			}
		}
	}
}
