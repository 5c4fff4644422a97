// Package ratectl implements Gimbal's rate pacing engine (§3.3, Algorithm 1
// and the dual token bucket of Appendix C.1 / Algorithm 4). The engine owns
// the target submission rate, adjusted on every IO completion according to
// the congestion state, and meters submissions through separate read and
// write token buckets whose refill is split by the current write cost.
package ratectl

import "gimbal/internal/core/latmon"

// Config holds the rate-control parameters (§4.2).
type Config struct {
	BucketMax   int64   // per-bucket token capacity, bytes (256KB)
	Beta        float64 // target-rate multiplier in the underutilized state (8)
	InitialRate float64 // starting target rate, bytes/sec
	MinRate     float64 // floor: keeps the self-clocked loop alive
	MaxRate     float64 // ceiling: device interface bound
	RateWindow  int64   // completion-rate measurement period, ns (§3.3)

	// SingleBucket collapses the dual token bucket into one shared bucket
	// (the Appendix C.1 ablation): writes then submit at the aggregate
	// rate and spike the device latency.
	SingleBucket bool
}

// DefaultConfig returns settings matched to the DCT983 device model.
func DefaultConfig() Config {
	return Config{
		BucketMax:   256 << 10,
		Beta:        8,
		InitialRate: 400e6,
		MinRate:     8e6,
		MaxRate:     4000e6,
		RateWindow:  10_000_000, // 10ms
	}
}

// Engine is the per-SSD rate controller. All methods take the current time
// explicitly so the engine stays clock-agnostic.
type Engine struct {
	cfg        Config
	targetRate float64 // bytes/sec
	readTok    float64 // bytes
	writeTok   float64
	lastRefill int64

	// Completion-rate measurement for the overloaded snap-down.
	winStart int64
	winBytes int64
	cplRate  float64 // bytes/sec over the last closed window
}

// New returns an engine with full buckets and the initial target rate.
func New(cfg Config, now int64) *Engine {
	e := &Engine{
		cfg:        cfg,
		targetRate: cfg.InitialRate,
		readTok:    float64(cfg.BucketMax),
		writeTok:   float64(cfg.BucketMax),
		lastRefill: now,
		winStart:   now,
		cplRate:    cfg.InitialRate,
	}
	return e
}

// Refill generates tokens for the elapsed time and distributes them between
// the read and write buckets in proportion writeCost : 1 (Algorithm 4),
// letting overflow from a full bucket spill into the other.
func (e *Engine) Refill(now int64, writeCost float64) {
	dt := now - e.lastRefill
	if dt <= 0 {
		return
	}
	e.lastRefill = now
	avail := e.targetRate * float64(dt) / 1e9
	if e.cfg.SingleBucket {
		// One bucket at the aggregate rate, double capacity to keep the
		// total token pool comparable.
		e.readTok += avail
		if max := 2 * float64(e.cfg.BucketMax); e.readTok > max {
			e.readTok = max
		}
		return
	}
	if writeCost < 1 {
		writeCost = 1
	}
	e.readTok += avail * writeCost / (1 + writeCost)
	e.writeTok += avail * 1 / (1 + writeCost)
	max := float64(e.cfg.BucketMax)
	if e.readTok > max {
		e.writeTok += e.readTok - max
		e.readTok = max
	}
	if e.writeTok > max {
		e.readTok += e.writeTok - max
		if e.readTok > max {
			e.readTok = max
		}
		e.writeTok = max
	}
}

// bucket returns the IO class's bucket and the level it must hold to admit
// an IO of size bytes: the size, or a full bucket for an IO larger than one
// — no bucket ever holds more, and such an IO would otherwise wait forever.
func (e *Engine) bucket(isWrite bool, size int) (tok *float64, need float64) {
	tok, full := &e.readTok, e.cfg.BucketMax
	if e.cfg.SingleBucket {
		full *= 2
	} else if isWrite {
		tok = &e.writeTok
	}
	return tok, float64(min(int64(size), full))
}

// Admit is the submission step of Algorithm 1 in one call. With enough
// tokens in the IO class's bucket it withdraws size bytes and reports ok;
// an IO larger than the bucket is admitted from a full one and leaves it in
// debt, which the refill repays before anything else of the class passes.
// Short of tokens it takes nothing and returns the refill time that covers
// the shortfall at the class's share of the target rate under writeCost —
// what the switch sets its pump timer to instead of busy-polling.
func (e *Engine) Admit(isWrite bool, size int, writeCost float64) (wait int64, ok bool) {
	tok, need := e.bucket(isWrite, size)
	if *tok < need {
		d := need - *tok
		if writeCost < 1 {
			writeCost = 1
		}
		share := writeCost / (1 + writeCost)
		if isWrite {
			share = 1 / (1 + writeCost)
		}
		rate := e.targetRate * share
		if rate <= 0 {
			rate = e.cfg.MinRate
		}
		return int64(d / rate * 1e9), false
	}
	*tok -= float64(size)
	return 0, true
}

// OnCompletion applies Algorithm 1's Completion procedure: adjust the
// target rate by the completed size according to the congestion state,
// snapping down to the measured completion rate (and discarding tokens)
// when overloaded.
func (e *Engine) OnCompletion(now int64, size int, state latmon.State) {
	// Completion-rate window accounting.
	e.winBytes += int64(size)
	if now-e.winStart >= e.cfg.RateWindow {
		e.cplRate = float64(e.winBytes) * 1e9 / float64(now-e.winStart)
		e.winStart = now
		e.winBytes = 0
	}

	switch state {
	case latmon.Overloaded:
		e.targetRate = e.cplRate
		// discard remaining tokens; an oversize IO's debt stands
		e.readTok, e.writeTok = min(e.readTok, 0), min(e.writeTok, 0)
		e.targetRate -= float64(size)
	case latmon.Congested:
		e.targetRate -= float64(size)
	case latmon.CongestionAvoidance:
		e.targetRate += float64(size)
	case latmon.Underutilized:
		e.targetRate += e.cfg.Beta * float64(size)
	}
	if e.targetRate < e.cfg.MinRate {
		e.targetRate = e.cfg.MinRate
	}
	if e.targetRate > e.cfg.MaxRate {
		e.targetRate = e.cfg.MaxRate
	}
}

// TargetRate returns the current target submission rate (bytes/sec).
func (e *Engine) TargetRate() float64 { return e.targetRate }

// CompletionRate returns the last measured completion rate (bytes/sec).
func (e *Engine) CompletionRate() float64 { return e.cplRate }

// Tokens returns the current bucket levels (read, write) in bytes.
func (e *Engine) Tokens() (read, write float64) { return e.readTok, e.writeTok }
