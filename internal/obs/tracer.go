package obs

import "sync/atomic"

// TracerConfig configures a Tracer. A tracer captures every IO whose switch
// residency reaches SlowNs, plus the first and then every SampleEvery-th IO
// it observes; SampleEvery 1 captures every IO. Capturing nothing is having
// no tracer: a nil *Tracer samples nothing.
type TracerConfig struct {
	// Capacity is the trace ring size (default 8192).
	Capacity int
	// SlowNs always captures IOs whose switch residency (done − arrival)
	// is at least this long. 0 disables the slow trigger.
	SlowNs int64
	// SampleEvery captures the first and then every Nth observed IO
	// regardless of latency, keeping an unbiased baseline next to the
	// tail-complete slow captures. 0 disables periodic sampling.
	SampleEvery int
}

// DefaultTracerConfig is sampled tracing tuned for the simulated SSDs:
// every IO slower than 1ms is captured, plus a 1-in-64 baseline.
func DefaultTracerConfig() TracerConfig {
	return TracerConfig{Capacity: 8192, SlowNs: 1_000_000, SampleEvery: 64}
}

// Tracer owns the span ring and the capture decision. Sample is called
// once per completed IO from scheduler context, and Capture for the IOs it
// keeps; neither allocates (traces travel by value), and fast, unsampled
// IOs skip the ring entirely — tail-biased sampling means every slow IO is
// captured while steady-state traffic pays two atomic adds at most.
type Tracer struct {
	cfg   TracerConfig
	ring  *TraceRing
	seen  atomic.Uint64 // IOs offered to Sample
	spans atomic.Uint64 // IOs captured; the last value is the newest span id
}

// NewTracer builds a tracer; a Capacity of 0 takes the default.
func NewTracer(cfg TracerConfig) *Tracer {
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultTracerConfig().Capacity
	}
	return &Tracer{cfg: cfg, ring: NewTraceRing(cfg.Capacity)}
}

// Ring returns the underlying trace ring (nil-safe).
func (t *Tracer) Ring() *TraceRing {
	if t == nil {
		return nil
	}
	return t.ring
}

// Seen returns the number of IOs offered to Sample.
func (t *Tracer) Seen() uint64 { return t.seen.Load() }

// Captured returns the number of IOs captured into the ring.
func (t *Tracer) Captured() uint64 { return t.spans.Load() }

// Sample records one observed IO and decides capture from its switch
// residency (done − arrival) alone, so callers that sample first only
// assemble the trace record for IOs that will actually be kept: the
// unsampled hot path is one atomic add and two compares.
func (t *Tracer) Sample(latNs int64) bool {
	if t == nil {
		return false
	}
	n := t.seen.Add(1)
	if t.cfg.SlowNs > 0 && latNs >= t.cfg.SlowNs {
		return true
	}
	return t.cfg.SampleEvery > 0 && (n-1)%uint64(t.cfg.SampleEvery) == 0
}

// Capture appends a trace Sample approved and returns its span id
// (1-based, monotone). The trace is passed by value so the caller's
// record never escapes to the heap.
func (t *Tracer) Capture(tr IOTrace) uint64 {
	id := t.spans.Add(1)
	tr.Span = id
	t.ring.Append(tr)
	return id
}
