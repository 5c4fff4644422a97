// Package ratectl implements Gimbal's rate pacing engine (§3.3, Algorithm 1
// and the dual token bucket of Appendix C.1 / Algorithm 4). The engine owns
// the target submission rate, adjusted on every IO completion according to
// the congestion state, and meters submissions through separate read and
// write token buckets whose refill is split by the current write cost.
package ratectl

import (
	"math"

	"gimbal/internal/core/latmon"
)

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
	// What every Refill and Admit reads comes first, to share cache lines.
	targetRate float64 // bytes/sec
	readTok    float64 // bytes
	writeTok   float64
	lastRefill int64

	// coverWait's reciprocals: of the read and write buckets' shares of
	// the refill, (1+wc)/wc and 1+wc as 1/share, at write cost shareCost
	// (clamped to 1; 0 until the first stall), and the nanoseconds per
	// byte, 1e9/rate, at target rate nsRate. The cost moves a few times a
	// cost period and the rate on some completions; coverWait asks on
	// every stalled pass.
	shareCost         float64
	readInv, writeInv float64
	nsRate, nsPerByte float64

	cfg Config

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
	e.readTok, e.writeTok = e.refilled(dt, writeCost)
}

// refilled returns the bucket levels dt nanoseconds of refill would leave.
func (e *Engine) refilled(dt int64, writeCost float64) (read, write float64) {
	read, write = e.readTok, e.writeTok
	avail := e.targetRate * float64(dt) / 1e9
	if e.cfg.SingleBucket {
		// One bucket at the aggregate rate, double capacity to keep the
		// total token pool comparable.
		read += avail
		if max := 2 * float64(e.cfg.BucketMax); read > max {
			read = max
		}
		return read, write
	}
	if writeCost < 1 {
		writeCost = 1
	}
	read += avail * writeCost / (1 + writeCost)
	write += avail * 1 / (1 + writeCost)
	max := float64(e.cfg.BucketMax)
	if read > max {
		write += read - max
		read = max
	}
	if write > max {
		read += write - max
		if read > max {
			read = max
		}
		write = max
	}
	return read, write
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
// Short of tokens it takes nothing and returns how long the refill takes to
// cover the shortfall at the current target rate and writeCost: Refill at
// lastRefill+wait, then Admit, succeeds. That is what the switch sets its
// pump timer to instead of busy-polling, and until then it knows a pass
// would stall.
func (e *Engine) Admit(isWrite bool, size int, writeCost float64) (wait int64, ok bool) {
	tok, need := e.bucket(isWrite, size)
	if *tok < need {
		return e.coverWait(isWrite, need-*tok, need, writeCost), false
	}
	*tok -= float64(size)
	return 0, true
}

// coverWait returns the refill time that lifts the class's bucket by d
// bytes, to need. Refill gives the class its share of the rate until the
// other bucket is full and the whole rate after that (a full bucket's share
// spills over), so d/share bytes of refill cover d, or d plus the other
// bucket's headroom, whichever is fewer; one bucket takes the whole rate.
// The time is one nanosecond past the truncated quotient. That covers d
// with room to spare unless the quotient sits a hair under a whole
// nanosecond: then rounding in the quotient or in Refill's sums can leave
// the refill a fraction of a byte short (TestAdmitWaitCovers finds such
// rows), so the time is checked against the refill Admit will see after
// it, a nanosecond more while that lands short. A hair is 1e-6 ns, at
// least 8e-9 bytes of refill at MinRate; the sums' rounding is ~1e-10.
//
// The quotient is first estimated with the cached reciprocals: two
// multiplications in place of the two divisions. The estimate is
// within 1e-15 of the quotient, relatively (a few roundings of 2^-53
// each), so where it lies farther than coverBand from a whole nanosecond
// and from the hair, the quotient truncates to the same nanosecond and
// passes the same test, and the estimate's answer is the divisions'. Only
// the rest take the divisions: almost never with arbitrary levels and
// rates, but always where the quotient is a whole nanosecond (DESIGN §6).
func (e *Engine) coverWait(isWrite bool, d, need, writeCost float64) int64 {
	inv, room := 1.0, math.Inf(1)
	if !e.cfg.SingleBucket {
		if writeCost < 1 {
			writeCost = 1
		}
		if writeCost != e.shareCost {
			e.shareCost, e.readInv, e.writeInv = writeCost, 1/share(false, writeCost), 1/share(true, writeCost)
		}
		other := e.writeTok
		inv = e.readInv
		if isWrite {
			inv, other = e.writeInv, e.readTok
		}
		room = d + max(float64(e.cfg.BucketMax)-other, 0)
	}
	if e.targetRate > 0 {
		if e.targetRate != e.nsRate {
			e.nsRate, e.nsPerByte = e.targetRate, 1e9/e.targetRate
		}
		est := min(d*inv, room) * e.nsPerByte
		wait := int64(est) + 1
		if band := est * coverBand; est-float64(wait-1) > band && float64(wait)-est > 1e-6+band {
			return wait
		}
	}
	// Too close to call: the divisions decide.
	if !e.cfg.SingleBucket {
		d = min(d/share(isWrite, writeCost), room)
	}
	if e.targetRate <= 0 {
		return int64(d/e.cfg.MinRate*1e9) + 1 // no refill ever covers it: the pump polls at MinRate
	}
	q := d / e.targetRate * 1e9
	wait := int64(q) + 1
	if float64(wait)-q > 1e-6 {
		return wait
	}
	tok, _ := e.bucket(isWrite, 0)
	for ; ; wait++ {
		level, write := e.refilled(wait, writeCost)
		if tok == &e.writeTok {
			level = write
		}
		if level >= need {
			return wait
		}
	}
}

// share is the class's share of the refill at write cost wc (at least 1):
// wc/(1+wc) for reads, 1/(1+wc) for writes.
func share(isWrite bool, wc float64) float64 {
	if isWrite {
		return 1 / (1 + wc)
	}
	return wc / (1 + wc)
}

// coverBand is how near, relative to itself, coverWait's estimate may lie
// to a whole nanosecond or to the hair before the divisions decide: a
// hundred times the estimate's error.
const coverBand = 1e-13

// OnCompletion applies Algorithm 1's Completion procedure: adjust the
// target rate by the completed size according to the congestion state,
// snapping down to the measured completion rate (and discarding tokens)
// when overloaded. It reports whether the target rate or a bucket moved:
// what a wait Admit returned before depends on.
func (e *Engine) OnCompletion(now int64, size int, state latmon.State) (moved bool) {
	// Completion-rate window accounting.
	e.winBytes += int64(size)
	if now-e.winStart >= e.cfg.RateWindow {
		e.cplRate = float64(e.winBytes) * 1e9 / float64(now-e.winStart)
		e.winStart = now
		e.winBytes = 0
	}

	rate := e.targetRate
	switch state {
	case latmon.Overloaded:
		e.targetRate = e.cplRate
		// discard remaining tokens; an oversize IO's debt stands
		moved = e.readTok > 0 || e.writeTok > 0
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
	return moved || e.targetRate != rate
}

// TargetRate returns the current target submission rate (bytes/sec).
func (e *Engine) TargetRate() float64 { return e.targetRate }

// CompletionRate returns the last measured completion rate (bytes/sec).
func (e *Engine) CompletionRate() float64 { return e.cplRate }

// Tokens returns the current bucket levels (read, write) in bytes.
func (e *Engine) Tokens() (read, write float64) { return e.readTok, e.writeTok }
