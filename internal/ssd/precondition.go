package ssd

import (
	"fmt"

	"gimbal/internal/sim"
)

// Condition names an SSD pre-conditioning state from the paper (§5.1).
type Condition int

// Pre-conditioning states.
const (
	// Fresh leaves the device unwritten (factory state).
	Fresh Condition = iota
	// Clean corresponds to a device pre-conditioned with 128KB sequential
	// writes: full mapping, sequential layout, GC victims come up empty.
	Clean
	// Fragmented corresponds to hours of sustained 4KB random overwrite:
	// full mapping with uniformly scattered valid pages, minimal free
	// blocks, and expensive GC on every new write.
	Fragmented
)

var conditionNames = [...]string{Fresh: "fresh", Clean: "clean", Fragmented: "fragmented"}

// String names the condition.
func (c Condition) String() string {
	if c < 0 || int(c) >= len(conditionNames) {
		return "condition(?)"
	}
	return conditionNames[c]
}

// ParseCondition resolves a condition's name, as String spells it.
func ParseCondition(name string) (Condition, error) {
	for c, n := range conditionNames {
		if n == name {
			return Condition(c), nil
		}
	}
	return 0, fmt.Errorf("ssd: unknown condition %q", name)
}

// Precondition fast-forwards the device into the requested state by running
// the FTL write path directly (no timing), exactly as hours of fio
// pre-conditioning would, then clears timelines, buffer, and counters so
// experiments start from a quiescent device. The rng drives the random
// overwrite pass for the fragmented state. The resulting state is memoized
// per (params, condition, rng state) — see snapshot.go — so a sweep that
// pre-conditions many identical devices pays for the fill once.
func (s *SSD) Precondition(c Condition, rng *sim.RNG) {
	if c == Fresh {
		return
	}
	s.preconditionCached(c, rng)
}

// preconditionUncached always runs the full fill/overwrite pass. It reports
// whether the Fragmented overwrites went die by die (overwriteByDie) rather
// than page by page.
func (s *SSD) preconditionUncached(c Condition, rng *sim.RNG) (byDie bool) {
	npages := s.p.LogicalPages()
	switch c {
	case Fresh:
		return false
	case Clean:
		s.fillSequential(0, npages, s.p.ProgramPages)
		s.resetAfterPrecondition()
		return false
	}
	if rng == nil {
		rng = sim.NewRNG(1)
	}
	start, flushDie := *rng, s.flushDie
	// The fill draws nothing, so the overwrite pass's pages are drawn
	// beside it.
	drawn := make([]uint32, overwriteWrites(npages))
	drew := make(chan struct{})
	go func() {
		for k := range drawn {
			drawn[k] = uint32(rng.Intn(npages))
		}
		close(drew)
	}()
	s.fillSequential(0, npages, s.p.ProgramPages)
	<-drew
	if byDie = s.overwriteByDie(drawn); !byDie {
		// Some die would skip a round-robin turn: start over from the fill
		// and take the plain per-page loop.
		*rng = start
		s.ftl = newFTL(s.p)
		s.flushDie = flushDie
		s.fillSequential(0, npages, s.p.ProgramPages)
		s.overwriteByPage(rng)
	}
	s.resetAfterPrecondition()
	return byDie
}

// overwriteWrites is the Fragmented pass's length: random single-page
// overwrites until 1.5x the device capacity has been rewritten, enough to
// reach the steady fragmented state where every GC victim carries
// substantial valid data.
func overwriteWrites(npages int) int { return npages + npages/2 }

// overwriteByPage runs the Fragmented pass one host page at a time, each to
// the die pickFlushDie chooses.
func (s *SSD) overwriteByPage(rng *sim.RNG) {
	npages := s.p.LogicalPages()
	for left := overwriteWrites(npages); left > 0; left-- {
		s.ftl.writePage(uint32(rng.Intn(npages)), s.preconditionDie(1))
	}
}

// fillSequential writes pages logical pages from first in order, striping
// program batches across dies in programBatch's allocation order.
func (s *SSD) fillSequential(first, pages, batch int) {
	for done := 0; done < pages; {
		n := batch
		if rem := pages - done; rem < n {
			n = rem
		}
		die := s.preconditionDie(n)
		for i := 0; i < n; i++ {
			s.ftl.writePage(uint32(first+done+i), die)
		}
		done += n
	}
}

// preconditionDie is pickFlushDie for the fill, which has no buffer to wait
// in: with every die out of space the parameters cannot hold their own
// logical capacity.
func (s *SSD) preconditionDie(pages int) int {
	die, ok := s.pickFlushDie(pages)
	if !ok {
		panic(fmt.Sprintf("ssd: %s cannot precondition: no die can take %d pages", s.p.Name, pages))
	}
	return die
}

func (s *SSD) resetAfterPrecondition() {
	for i := range s.dieBusy {
		s.dieBusy[i] = 0
	}
	for i := range s.chanBusy {
		s.chanBusy[i] = 0
	}
	for i := range s.gcFence {
		s.gcFence[i] = 0
	}
	for i := range s.progBusy {
		s.progBusy[i] = 0
	}
	for i := range s.lastRow {
		s.lastRow[i] = ^uint32(0) >> 1
	}
	s.bufOccupancy = 0
	s.buf.reset()
	s.flushPending = s.flushPending[:0]
	s.flushHead = 0
	s.lastFlushEnd = 0
	s.stats = Stats{}
	// Reset cumulative FTL counters so measured write amplification
	// reflects the experiment, not the pre-conditioning pass.
	s.ftl.hostPages = 0
	s.ftl.gcMoved = 0
	s.ftl.gcErases = 0
	s.ftl.gcReclaims = 0
}
