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
// on a hit cannot perturb any other random stream, and the restored arrays
// are deep copies of state produced by the exact code path a miss runs.
// Experiment output is therefore byte-identical with the cache on or off.
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

// ftlSnapshot is a deep copy of everything Precondition mutates: the mapping
// tables, per-block metadata, per-die allocator state, the GC bucket lists,
// and the device's flush cursor. Immutable once published.
type ftlSnapshot struct {
	l2p        []uint32
	p2l        []uint32
	valid      []uint16
	writePtr   []uint16
	erases     []uint32
	freeLists  [][]uint32
	open       []uint32
	gcOpen     []uint32
	bucketHead []int32
	bNext      []int32
	bPrev      []int32
	inBucket   []bool
	minValid   []int32
	mapped     uint64
	flushDie   int
}

// precondCacheCap bounds retained snapshots; a snapshot is O(device pages),
// and a sweep touches only a handful of distinct (params, condition) pairs.
const precondCacheCap = 8

var precondCache = struct {
	mu    sync.Mutex
	m     map[precondKey]*ftlSnapshot
	order []precondKey // FIFO eviction
}{m: make(map[precondKey]*ftlSnapshot)}

func cloneU32(s []uint32) []uint32 { return append([]uint32(nil), s...) }
func cloneU16(s []uint16) []uint16 { return append([]uint16(nil), s...) }
func cloneI32(s []int32) []int32   { return append([]int32(nil), s...) }

// capture deep-copies the device's post-precondition state.
func (s *SSD) capture() *ftlSnapshot {
	f := s.ftl
	snap := &ftlSnapshot{
		l2p:        cloneU32(f.l2p),
		p2l:        cloneU32(f.p2l),
		valid:      cloneU16(f.valid),
		writePtr:   cloneU16(f.writePtr),
		erases:     cloneU32(f.erases),
		freeLists:  make([][]uint32, len(f.dies)),
		open:       make([]uint32, len(f.dies)),
		gcOpen:     make([]uint32, len(f.dies)),
		bucketHead: cloneI32(f.bucketHead),
		bNext:      cloneI32(f.bNext),
		bPrev:      cloneI32(f.bPrev),
		inBucket:   append([]bool(nil), f.inBucket...),
		minValid:   cloneI32(f.minValid),
		mapped:     f.mappedPages,
		flushDie:   s.flushDie,
	}
	for d := range f.dies {
		snap.freeLists[d] = cloneU32(f.dies[d].free)
		snap.open[d] = f.dies[d].open
		snap.gcOpen[d] = f.dies[d].gcOpen
	}
	return snap
}

// restore copies a snapshot into the device (same Params, so all array
// lengths match) and re-runs the post-precondition reset, leaving the device
// indistinguishable from one that ran the full fill. The maps are fresh
// copies: a device with no page mapped has blank maps, and those go to
// the next device's newFTL.
func (s *SSD) restore(snap *ftlSnapshot) {
	f := s.ftl
	if f.mappedPages == 0 {
		blanks.Put(&blank{f.l2p, f.p2l})
	}
	f.l2p = slices.Clone(snap.l2p)
	f.p2l = slices.Clone(snap.p2l)
	copy(f.valid, snap.valid)
	copy(f.writePtr, snap.writePtr)
	copy(f.erases, snap.erases)
	copy(f.bucketHead, snap.bucketHead)
	copy(f.bNext, snap.bNext)
	copy(f.bPrev, snap.bPrev)
	copy(f.inBucket, snap.inBucket)
	copy(f.minValid, snap.minValid)
	f.mappedPages = snap.mapped
	for d := range f.dies {
		ds := &f.dies[d]
		ds.free = append(ds.free[:0], snap.freeLists[d]...)
		ds.open = snap.open[d]
		ds.gcOpen = snap.gcOpen[d]
	}
	// Drop the dieWritable memo rather than snapshotting version counters;
	// the next probe re-derives the same verdicts.
	for d := range f.writableVer {
		f.writableVer[d] = 0
	}
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
