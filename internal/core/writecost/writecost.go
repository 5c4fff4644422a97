// Package writecost implements Gimbal's dynamic SSD write-cost estimator
// (§3.4): the ratio between achieved read and write bandwidth, calibrated
// online in an ADMI (additive-decrease, multiplicative-increase) manner.
// When writes are absorbed by the SSD's DRAM buffer their latency is low
// and the cost decays toward 1 (writes as cheap as reads); as soon as the
// write rate exceeds the buffer's draining capability, latency rises and
// the cost snaps halfway to the pre-calibrated worst case.
package writecost

// Config holds the §4.2 parameters.
type Config struct {
	Worst float64 // write_cost_worst: datasheet read/write IOPS ratio (9)
	Delta float64 // additive decrement per calm period (0.5)
}

// DefaultConfig returns the paper's DCT983 settings.
func DefaultConfig() Config { return Config{Worst: 9, Delta: 0.5} }

// Estimator tracks the current write cost. Update is driven periodically
// by the switch using the write latency monitor.
//
// When a fast tier sits in front of the NAND device, SetTierMix blends
// the estimate: the fraction of write bytes the tier absorbs costs 1
// (tier writes see no amplification), the remainder costs the NAND-side
// estimate floored by the tier's reported GC pressure. With no tier
// configured (absorb ≤ 0, the zero value) the estimator is bit-identical
// to the paper's.
type Estimator struct {
	cfg  Config
	cost float64

	// Tier mix (SetTierMix): absorb is the fraction of write bytes the
	// fast tier absorbs; floor is the NAND-side cost floor derived from
	// its current write amplification. absorb ≤ 0 disables blending.
	absorb float64
	floor  float64
}

// New returns an estimator starting at the worst case — the safe baseline
// until observed latencies justify lowering it.
func New(cfg Config) *Estimator {
	if cfg.Worst < 1 {
		cfg.Worst = 1
	}
	return &Estimator{cfg: cfg, cost: cfg.Worst}
}

// Update adjusts the cost given whether the write EWMA latency is below the
// minimum latency threshold (calm) and returns the new cost. Calm periods
// decrease the cost by delta down to 1; any elevated latency jumps it to
// the midpoint of the current value and the worst case, converging to the
// worst case within a few periods of sustained pressure.
func (e *Estimator) Update(calm bool) float64 {
	if calm {
		e.cost -= e.cfg.Delta
		if e.cost < 1 {
			e.cost = 1
		}
	} else {
		e.cost = (e.cost + e.cfg.Worst) / 2
	}
	return e.cost
}

// SetTierMix updates the tier blend: absorb ∈ [0,1] is the fraction of
// write bytes landing in the fast tier, floor (≥ 1, typically the NAND's
// current write amplification) bounds how far a calm NAND estimate may
// fall while unabsorbed writes still pay for garbage collection. Passing
// absorb ≤ 0 restores the unblended estimator exactly.
func (e *Estimator) SetTierMix(absorb, floor float64) {
	if absorb < 0 {
		absorb = 0
	}
	if absorb > 1 {
		absorb = 1
	}
	if floor < 1 {
		floor = 1
	}
	if floor > e.cfg.Worst {
		floor = e.cfg.Worst
	}
	e.absorb = absorb
	e.floor = floor
}

// Cost returns the current write cost (≥ 1). With a tier mix set, the
// ADMI estimate applies only to the unabsorbed fraction (floored by the
// NAND GC pressure); absorbed bytes cost 1.
func (e *Estimator) Cost() float64 {
	if e.absorb <= 0 {
		return e.cost
	}
	nand := e.cost
	if nand < e.floor {
		nand = e.floor
	}
	c := e.absorb*1 + (1-e.absorb)*nand
	if c < 1 {
		c = 1
	}
	return c
}

// WeightedSize returns the cost-weighted size of an IO as used by the
// virtual-slot scheduler (§3.5): writes are charged cost × size, reads
// their actual size.
func (e *Estimator) WeightedSize(isWrite bool, size int) int64 {
	if !isWrite {
		return int64(size)
	}
	return int64(e.Cost() * float64(size))
}
