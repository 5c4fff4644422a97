package stats

import (
	"math"
	"sync"
	"testing"
)

// Empty histograms must report zero for every derived statistic, including
// arbitrary quantiles, without panicking.
func TestHistogramEmptyPercentiles(t *testing.T) {
	h := NewHistogram()
	for _, q := range []float64{0, 0.5, 0.99, 0.999, 1} {
		if v := h.Quantile(q); v != 0 {
			t.Fatalf("empty Quantile(%v) = %d, want 0", q, v)
		}
	}
	if h.P50() != 0 || h.P99() != 0 || h.P999() != 0 {
		t.Fatal("empty percentile shortcuts must be 0")
	}
	if got := Percentiles(nil, 0.5, 0.99); got[0] != 0 || got[1] != 0 {
		t.Fatalf("exact percentiles of empty slice = %v", got)
	}
}

// A single sample pins every statistic to that exact value: the quantile
// clamp to [min, max] must override the bucket representative.
func TestHistogramSingleSample(t *testing.T) {
	for _, v := range []int64{0, 1, 63, 64, 4097, 1_234_567, 1e12} {
		h := NewHistogram()
		h.Record(v)
		if h.Min() != v || h.Max() != v {
			t.Fatalf("single sample %d: min/max = %d/%d", v, h.Min(), h.Max())
		}
		if h.Mean() != float64(v) {
			t.Fatalf("single sample %d: mean = %v", v, h.Mean())
		}
		for _, q := range []float64{0, 0.5, 0.99, 1} {
			if got := h.Quantile(q); got != v {
				t.Fatalf("single sample %d: Quantile(%v) = %d", v, q, got)
			}
		}
	}
}

// The documented accuracy contract: with 64 linear sub-buckets per power of
// two, the representative value is within 1/64 of the recorded sample for
// every magnitude (1/2^subBucketBits relative error bound).
func TestHistogramBucketRelativeErrorBound(t *testing.T) {
	bound := 1.0 / subBuckets
	for shift := 0; shift < 40; shift++ {
		for _, off := range []int64{0, 1, 3, 7} {
			v := int64(1)<<shift + off<<(max(shift-3, 0))
			got := bucketValue(bucketIndex(v))
			relErr := math.Abs(float64(got-v)) / math.Max(float64(v), 1)
			if relErr > bound {
				t.Fatalf("value %d -> representative %d, rel err %.5f > %.5f",
					v, got, relErr, bound)
			}
		}
	}
}

// Negative samples clamp to zero rather than indexing out of range.
func TestHistogramNegativeSampleClamps(t *testing.T) {
	h := NewHistogram()
	h.Record(-5)
	if h.Min() != 0 || h.Max() != 0 || h.Count() != 1 {
		t.Fatalf("negative sample: min=%d max=%d count=%d", h.Min(), h.Max(), h.Count())
	}
}

// The Meter's counter is atomic: concurrent Adds from completion callbacks and
// scrapes must neither race (run under -race) nor lose counts.
func TestMeterConcurrentAdd(t *testing.T) {
	m := NewMeter(0)
	var wg sync.WaitGroup
	const workers, perWorker = 8, 1000
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				m.Add(4096)
				_ = m.Bytes() // concurrent read, as a telemetry scrape would
			}
		}()
	}
	wg.Wait()
	if m.Bytes() != workers*perWorker*4096 {
		t.Fatalf("lost updates: bytes=%d", m.Bytes())
	}
}

// Degenerate fairness inputs: zero workers, zero/negative standalone
// bandwidth, and all-zero allocations must return 0, not NaN or Inf.
func TestFairnessDegenerateInputs(t *testing.T) {
	if FUtil(100, 1600, 0) != 0 {
		t.Fatal("zero workers should yield 0")
	}
	if FUtil(100, -5, 4) != 0 {
		t.Fatal("negative standalone should yield 0")
	}
	if j := JainIndex([]float64{0, 0, 0}); j != 0 {
		t.Fatalf("all-zero Jain = %v, want 0", j)
	}
	if j := JainIndex([]float64{5}); math.Abs(j-1) > 1e-9 {
		t.Fatalf("single-element Jain = %v, want 1", j)
	}
}

// A zero-length interval Meter is valid.
func TestMeterDegenerate(t *testing.T) {
	m := NewMeter(1e9)
	m.Add(4096)
	if bw := m.BandwidthMBps(1e9); bw != 0 {
		t.Fatalf("zero-interval bandwidth = %v, want 0", bw)
	}
	if bw := m.BandwidthMBps(5e8); bw != 0 {
		t.Fatalf("negative-interval bandwidth = %v, want 0", bw)
	}
}
