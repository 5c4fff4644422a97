package main

import (
	"math"
	"math/bits"
	"sort"
)

// median returns the middle value (mean of the two middle values for an
// even count); 0 for an empty slice. The input is not modified.
func median(xs []float64) float64 {
	q := quartiles(xs)
	return q[1]
}

// quartiles returns Q1, median, Q3 by the rule Python's
// statistics.quantiles(xs, n=4) uses (exclusive method: position
// i*(n+1)/4, linear interpolation), because that is the rule the driver
// judges spreads by. Fewer than two values give the value (or 0) thrice.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4 // after clamping, so the ends extrapolate as Python's do
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out
}

// iqrPct is (Q3−Q1)/median in percent: the spread the driver bounds.
func iqrPct(xs []float64) float64 {
	q := quartiles(xs)
	if q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / math.Abs(q[1]) * 100
}

// percentileLadder is the set of percentiles the benchmark reports from,
// each with the sample count that puts ten samples beyond it.
var percentileLadder = []struct {
	q    float64
	need uint64
}{{0.50, 20}, {0.90, 100}, {0.99, 1000}, {0.999, 10_000}, {0.9999, 100_000}}

// supportedPercentile returns the highest percentile of the ladder that
// has at least ten samples beyond it (choosing-metrics §1); 0 when even
// the median has fewer.
func supportedPercentile(n uint64) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		if n >= p.need {
			best = p.q
		}
	}
	return best
}

// fineHist is a log-bucketed histogram of non-negative nanosecond samples
// with 1024 linear sub-buckets per power of two (≤0.1% bucket width) and
// rank interpolation inside a bucket. The repository's stats.Histogram
// (64 sub-buckets, midpoint read-out) quantises a p99 to 1.5% steps, which
// is as wide as the bounds this benchmark sets on simulated latencies.
type fineHist struct {
	counts []uint32
	total  uint64
	sum    float64
	max    int64
}

const (
	fineBits    = 10
	fineSub     = 1 << fineBits
	fineBuckets = (64 - fineBits + 1) * fineSub
)

func newFineHist() *fineHist { return &fineHist{counts: make([]uint32, fineBuckets)} }

func fineIndex(v int64) int {
	if v < fineSub {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	u := uint64(v)
	shift := 63 - bits.LeadingZeros64(u) - fineBits
	return (shift+1)*fineSub + int((u>>shift)&(fineSub-1))
}

// fineBounds returns the half-open value range [lo, hi) of a bucket.
func fineBounds(idx int) (lo, hi int64) {
	if idx < fineSub {
		return int64(idx), int64(idx) + 1
	}
	shift := idx/fineSub - 1
	lo = (int64(1) << (shift + fineBits)) + int64(idx%fineSub)<<shift
	return lo, lo + int64(1)<<shift
}

func (h *fineHist) record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[fineIndex(v)]++
	h.total++
	h.sum += float64(v)
	if v > h.max {
		h.max = v
	}
}

func (h *fineHist) reset() {
	clear(h.counts)
	h.total, h.sum, h.max = 0, 0, 0
}

// quantile returns the q-quantile in nanoseconds, interpolating by rank
// inside the bucket that holds it.
func (h *fineHist) quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	rank := q * float64(h.total)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) > rank {
			lo, hi := fineBounds(i)
			v := float64(lo) + (rank-cum)/float64(c)*float64(hi-lo)
			return math.Min(v, float64(h.max))
		}
		cum += float64(c)
	}
	return float64(h.max)
}

// us returns the q-quantile in microseconds, or 0 when the histogram has
// fewer than ten samples beyond q (the percentile rule): a per-layer
// metric named *_p99 is then reported as absent rather than as a guess.
func (h *fineHist) us(q float64) float64 {
	if supportedPercentile(h.total) < q {
		return 0
	}
	return h.quantile(q) / 1e3
}

// merge adds other's samples to h.
func (h *fineHist) merge(other *fineHist) {
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.total += other.total
	h.sum += other.sum
	if other.max > h.max {
		h.max = other.max
	}
}

// fastBatch is the batch n/16 places from the fast end of per-batch costs
// (third-fastest of 32–47 batches, second-fastest of 15–31): the steadiness
// of the minimum without resting on one freak batch. It summarises the short
// passes behind per-layer numbers (ladder rungs, codec loops, the traced
// run's reference pass), which have too few batches for a median to shed a
// noisy spell. No gated metric uses it: a near-minimum cannot see a change
// that makes slow batches more frequent.
func fastBatch(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := len(s) / 16
	if k < 1 && len(s) > 1 {
		k = 1
	}
	return s[k]
}
