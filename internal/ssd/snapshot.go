package ssd

import (
	"slices"
	"sync"

	"gimbal/internal/sim"
)

// Pre-conditioning snapshot cache. Profiling the experiment sweep shows the
// dominant cost is not the measured workload but Precondition: every
// experiment re-runs a full sequential fill plus a 1.5x-capacity random
// overwrite per SSD. The resulting FTL state is a pure function of
// (Params, Condition, RNG state) — the fill path draws nothing else — so the
// first run per key captures the post-precondition state and later runs
// restore it bit-for-bit instead of replaying millions of page writes.
//
// Correctness of the shortcut: callers hand Precondition a throwaway RNG
// (harness code forks one per device and discards it), so skipping the draws
// on a hit cannot perturb any other random stream, and the restored state
// is a deep copy of state produced by the exact code path a miss runs.
// Experiment output is therefore byte-identical with the cache on or off.
// A snapshot is the two maps plus a copy of each die's state, and capture
// and restore copy a die the one way, die.copyTo: the type that declares a
// die's state is the one place that lists it.
//
// A miss runs preconditionUncached: the fill, then the overwrite pass die
// by die (diepass.go). GC never moves a page to another die, and on every
// device of 1 GiB and up each die takes its round-robin turn, so each die
// replays its own host writes and invalidations in a map sized to the die,
// the dies on up to GOMAXPROCS goroutines. Where some die would skip a
// turn (the 256 and 512 MiB test devices), the pass starts over from the
// fill through the per-page loop. Both paths leave the same state, so a
// miss captures what the per-page loop would.

// precondKey identifies one reachable post-precondition state. Clean ignores
// the RNG, so its seed is normalized to 0 to widen sharing. tag carries the
// caller's configuration fingerprint (SetSnapshotTag): a device fronted by a
// fast tier must not share an entry with an untiered one even though Params
// match, because the owning stacks diverge afterwards.
type precondKey struct {
	params Params
	cond   Condition
	seed   uint64
	tag    uint64
}

// ftlSnapshot is a deep copy of everything Precondition mutates: the
// mapping tables, each die's state and the device's flush cursor.
// Immutable once published.
type ftlSnapshot struct {
	l2p      []uint32
	p2l      []uint32
	dies     []*die
	mapped   uint64
	flushDie int
}

// precondCacheCap bounds retained snapshots; a snapshot is O(device pages),
// and a sweep touches only a handful of distinct (params, condition) pairs.
const precondCacheCap = 8

var precondCache = struct {
	mu    sync.Mutex
	m     map[precondKey]*ftlSnapshot
	order []precondKey // FIFO eviction
}{m: make(map[precondKey]*ftlSnapshot)}

// capture deep-copies the device's post-precondition state.
func (s *SSD) capture() *ftlSnapshot {
	f := s.ftl
	snap := &ftlSnapshot{
		l2p:      slices.Clone(f.l2p),
		p2l:      slices.Clone(f.p2l),
		dies:     make([]*die, len(f.dies)),
		mapped:   f.mappedPages,
		flushDie: s.flushDie,
	}
	for i, d := range f.dies {
		snap.dies[i] = new(die)
		d.copyTo(snap.dies[i], snap.p2l)
	}
	return snap
}

// restore copies a snapshot into the device (same Params, so all array
// lengths match) and re-runs the post-precondition reset, leaving the
// device indistinguishable from one that ran the full fill. The maps are
// fresh copies: a device with no page mapped has blank maps, and those go
// to the next device's newFTL.
func (s *SSD) restore(snap *ftlSnapshot) {
	f := s.ftl
	if f.mappedPages == 0 {
		blanks.Put(&blank{f.l2p, f.p2l})
	}
	f.l2p = slices.Clone(snap.l2p)
	f.p2l = slices.Clone(snap.p2l)
	for i, d := range snap.dies {
		d.copyTo(f.dies[i], f.p2l)
	}
	f.mappedPages = snap.mapped
	s.flushDie = snap.flushDie
	s.resetAfterPrecondition()
}

// preconditionCached serves Precondition from the snapshot cache, running
// the real fill exactly once per distinct (params, condition, rng state).
func (s *SSD) preconditionCached(c Condition, rng *sim.RNG) {
	key := precondKey{params: s.p, cond: c, tag: s.snapTag}
	if c == Fragmented {
		if rng == nil {
			rng = sim.NewRNG(1)
		}
		key.seed = rng.State()
	}
	precondCache.mu.Lock()
	snap := precondCache.m[key]
	precondCache.mu.Unlock()
	if snap != nil {
		s.restore(snap)
		return
	}
	s.preconditionUncached(c, rng)
	snap = s.capture()
	precondCache.mu.Lock()
	if _, dup := precondCache.m[key]; !dup {
		if len(precondCache.order) >= precondCacheCap {
			oldest := precondCache.order[0]
			precondCache.order = precondCache.order[1:]
			delete(precondCache.m, oldest)
		}
		precondCache.m[key] = snap
		precondCache.order = append(precondCache.order, key)
	}
	precondCache.mu.Unlock()
}
