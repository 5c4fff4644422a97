// Package stats provides the measurement toolkit shared by the workload
// generators and the benchmark harness: log-bucketed latency histograms
// with percentile queries, exponentially weighted moving averages,
// throughput meters, time-series recorders, and the fairness metrics used
// in the paper's evaluation (f-Util, utilization deviation, Jain index).
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Histogram is a log-bucketed histogram of nonnegative int64 samples
// (nanosecond latencies in this repository). Buckets grow geometrically:
// each power of two is split into subBuckets linear sub-buckets, giving a
// bounded relative error of 1/subBuckets (~1.5% with 64) while keeping the
// structure small and allocation-free on the record path.
type Histogram struct {
	counts []uint64
	total  uint64
	sum    float64
	min    int64
	max    int64
}

const (
	subBucketBits = 6
	subBuckets    = 1 << subBucketBits // 64
	histBuckets   = 64 * subBuckets
)

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]uint64, histBuckets), min: math.MaxInt64}
}

func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < subBuckets {
		return int(v)
	}
	// Position of the highest set bit beyond the sub-bucket resolution.
	u := uint64(v)
	msb := 63 - bits.LeadingZeros64(u)
	shift := msb - subBucketBits
	idx := (shift+1)*subBuckets + int((u>>shift)&(subBuckets-1))
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	return idx
}

// bucketValue returns a representative (upper-edge midpoint) value for a
// bucket index: the inverse of bucketIndex up to sub-bucket resolution.
func bucketValue(idx int) int64 {
	if idx < subBuckets {
		return int64(idx)
	}
	shift := idx/subBuckets - 1
	sub := idx % subBuckets
	base := int64(1) << (shift + subBucketBits)
	return base + int64(sub)<<shift + (int64(1)<<shift)/2
}

// Record adds one sample.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(v)]++
	h.total++
	h.sum += float64(v)
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// RecordAll adds the samples in order, as Record would one by one: the
// same counts, min and max, and the sum Record's float64 additions give,
// so the histogram ends bit for bit where per-sample recording leaves it.
// A recorder that stages samples folds them with it, one histogram at a
// time.
//
// The sum is an integer sum while that is provably the same: the sum only
// ever adds integers, so it is a whole number, and while every partial
// sum stays below 2^53 each float64 addition is exact. When the batch's
// integer total (exact: fewer than 2^10 samples, each below 2^53) added to
// the sum stays below 2^53, so does every partial sum, and one addition
// gives the bits the in-order additions would. Otherwise it makes them.
func (h *Histogram) RecordAll(vs []int64) {
	counts, lo, hi := h.counts, h.min, h.max
	var total int64
	for _, v := range vs {
		v = max(v, 0)
		counts[bucketIndex(v)]++
		total += v
		lo, hi = min(lo, v), max(hi, v)
	}
	h.total += uint64(len(vs))
	h.min, h.max = lo, hi
	if sum := h.sum + float64(total); hi < 1<<53 && len(vs) < 1<<10 && sum < 1<<53 {
		h.sum = sum
		return
	}
	for _, v := range vs {
		h.sum += float64(max(v, 0))
	}
}

// Count returns the number of samples recorded.
func (h *Histogram) Count() uint64 { return h.total }

// Mean returns the arithmetic mean of the samples (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Min returns the smallest recorded sample (0 when empty).
func (h *Histogram) Min() int64 {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded sample.
func (h *Histogram) Max() int64 { return h.max }

// Quantile returns an approximation of the q-quantile (0 ≤ q ≤ 1) with
// relative error bounded by the sub-bucket resolution. Exact min/max are
// returned at the extremes.
func (h *Histogram) Quantile(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(q * float64(h.total))
	if rank >= h.total {
		rank = h.total - 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum > rank {
			v := bucketValue(i)
			if v > h.max {
				v = h.max
			}
			if v < h.min {
				v = h.min
			}
			return v
		}
	}
	return h.max
}

// P50, P99 and P999 are the percentile shortcuts the paper reports.
func (h *Histogram) P50() int64 { return h.Quantile(0.50) }

// P99 returns the 99th percentile.
func (h *Histogram) P99() int64 { return h.Quantile(0.99) }

// P999 returns the 99.9th percentile.
func (h *Histogram) P999() int64 { return h.Quantile(0.999) }

// Merge adds all samples of other into h.
func (h *Histogram) Merge(other *Histogram) {
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.total += other.total
	h.sum += other.sum
	if other.total > 0 {
		if other.min < h.min {
			h.min = other.min
		}
		if other.max > h.max {
			h.max = other.max
		}
	}
}

// Reset clears the histogram.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total = 0
	h.sum = 0
	h.min = math.MaxInt64
	h.max = 0
}

// String summarizes the distribution in microseconds.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%.1fus p50=%.1fus p99=%.1fus p99.9=%.1fus max=%.1fus",
		h.total, h.Mean()/1e3, float64(h.P50())/1e3, float64(h.P99())/1e3,
		float64(h.P999())/1e3, float64(h.max)/1e3)
}

// Percentiles computes exact quantiles from a raw sample slice; used by
// tests to validate the histogram approximation.
func Percentiles(samples []int64, qs ...float64) []int64 {
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	out := make([]int64, len(qs))
	for i, q := range qs {
		if len(s) == 0 {
			continue
		}
		idx := int(q * float64(len(s)))
		if idx >= len(s) {
			idx = len(s) - 1
		}
		out[i] = s[idx]
	}
	return out
}
