package stats

import "sync/atomic"

// EWMA is an exponentially weighted moving average with weight alpha given
// to new samples, matching the paper's latency monitor:
//
//	ewma = (1-alpha)*ewma + alpha*sample
//
// The first sample initializes the average directly.
type EWMA struct {
	alpha float64
	value float64
	seen  bool
}

// NewEWMA returns an EWMA with the given weight for new samples.
func NewEWMA(alpha float64) *EWMA { return &EWMA{alpha: alpha} }

// Update folds in one sample and returns the new average.
func (e *EWMA) Update(sample float64) float64 {
	if !e.seen {
		e.value = sample
		e.seen = true
		return e.value
	}
	e.value = (1-e.alpha)*e.value + e.alpha*sample
	return e.value
}

// Value returns the current average (0 before any sample).
func (e *EWMA) Value() float64 { return e.value }

// Initialized reports whether at least one sample has been folded in.
func (e *EWMA) Initialized() bool { return e.seen }

// Meter accumulates a byte count over an interval and converts it to
// bandwidth. The counter is atomic so completion callbacks and telemetry
// scrapes may race safely; Reset is not atomic with respect to concurrent
// Adds and should happen in scheduler context.
type Meter struct {
	bytes atomic.Int64
	start int64
}

// NewMeter returns a meter whose interval starts at now (nanoseconds).
func NewMeter(now int64) *Meter { return &Meter{start: now} }

// Add records one completed operation of n bytes.
func (m *Meter) Add(n int64) { m.bytes.Add(n) }

// Bytes returns the bytes accumulated since the interval start.
func (m *Meter) Bytes() int64 { return m.bytes.Load() }

// BandwidthMBps returns the mean bandwidth since the interval start in
// MB/s (1 MB = 1e6 bytes, as the paper plots).
func (m *Meter) BandwidthMBps(now int64) float64 {
	dt := float64(now-m.start) / 1e9
	if dt <= 0 {
		return 0
	}
	return float64(m.bytes.Load()) / 1e6 / dt
}

// Reset restarts the interval at now.
func (m *Meter) Reset(now int64) {
	m.bytes.Store(0)
	m.start = now
}

// FUtil computes the paper's fair-utilization metric (§5.1) for one worker:
// its achieved bandwidth divided by its fair share of its standalone
// maximum bandwidth. The ideal value is 1.
func FUtil(workerBW, standaloneMaxBW float64, totalWorkers int) float64 {
	if standaloneMaxBW <= 0 || totalWorkers <= 0 {
		return 0
	}
	return workerBW / (standaloneMaxBW / float64(totalWorkers))
}

// JainIndex computes Jain's fairness index over per-worker allocations:
// (Σx)² / (n·Σx²); 1 is perfectly fair.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}
