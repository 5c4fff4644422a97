package ssd

import (
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// The Fragmented overwrite pass, die by die. The per-page loop waits on a
// cache miss into the device-sized l2p/p2l maps for every host write and
// every GC move. Two facts let each die replay its own writes in maps
// sized to the die instead:
//
//   - reclaim never moves a page to another die, so a die's state is a
//     function of the host writes it takes and the invalidations of its
//     pages, in order;
//   - on a device where every die takes its round-robin turn, host write k
//     goes to die (flushDie+k) mod dies, known before anything is written.
//
// overwriteByDie takes the loop's rng.Intn draws, made in the loop's order,
// and routes each one twice: as a host write to its turn's die, and as an
// invalidation to the die that holds the page's previous copy. Each die
// then replays its writes and invalidations through the unchanged ftl
// methods on a one-die view of the device's arrays, whose l2p is indexed by
// a die-local page name, and the result is translated back. A replay checks
// dieWritable && canAlloc before every host write, exactly as pickFlushDie
// would; if any die would skip its turn, the pass reports false and the
// caller starts over from the fill through the per-page loop. Either way
// the final state is the one the per-page loop leaves. Naming the fill's
// pages and the replays write disjoint elements of the device's arrays, so
// both run on up to GOMAXPROCS goroutines; the result does not depend on
// how many. Disjoint elements are not disjoint cache lines: the per-die
// scalars of sixteen dies share one line, and a die's per-block arrays
// share their first and last lines with its neighbours'. So each replay
// works on private copies of its die's block arrays and scalars and writes
// them back once (dieView, storeDie). Only its slice of p2l (148 KB a die
// at 4 GiB, two lines of it shared) and the l2p words its pages translate
// back to stay in the device's arrays.

// dieStream is one die's share of the overwrite pass. The die takes every
// n-th write of the pass, starting at write first; a page on it is known by
// a die-local name, its physical page in the die if the fill put it there
// and pagesPerDie+j if the die's j-th host write did.
type dieStream struct {
	first int
	fill  []uint32 // name -> logical page, for the fill's names
	inv   []invOp  // the die's invalidations, in pass order
}

// invOp invalidates the page named name on a die, after write k of the pass.
type invOp struct{ k, name uint32 }

// routeBatch is how many draws routing resolves before it files their
// invalidations: their loads of where are issued back to back, so the
// cache misses overlap.
const routeBatch = 256

// overwriteByDie runs the Fragmented overwrite pass die by die on a freshly
// filled device, drawn holding the pages overwriteByPage would draw. It
// leaves the state overwriteByPage would when it reports true; when it
// reports false some die would have skipped a turn, and the FTL is left
// half replayed.
func (s *SSD) overwriteByDie(drawn []uint32) bool {
	f := s.ftl
	n := len(f.dies)
	npages := s.p.LogicalPages()
	writes := len(drawn)
	pagesPerDie := f.blocksPerDie * f.ppb
	// where packs the die and name of a logical page's current copy.
	shift := uint(bits.Len(uint(pagesPerDie + writes/n)))
	if uint64(n)<<shift > 1<<32 || writes > 1<<32-1 {
		return false
	}
	mask := uint32(1)<<shift - 1
	first := s.flushDie
	where := make([]uint32, npages)
	streams := make([]dieStream, n)
	// Name the fill's pages. Each die's where words are its own pages'.
	inParallel(n, func(d, _ int) bool {
		st := &streams[d]
		st.first = (d - first + n) % n
		p2l := f.p2l[d*pagesPerDie : (d+1)*pagesPerDie]
		st.fill = slices.Clone(p2l)
		// About as many invalidations land on a die as it takes writes.
		w := (writes - st.first + n - 1) / n
		st.inv = make([]invOp, 0, w+w/16+64)
		for phys, l := range p2l {
			if l != invalidPage {
				where[l] = uint32(d)<<shift | uint32(phys)
				p2l[phys] = uint32(phys)
			}
		}
		return true
	})
	// Route, routeBatch draws at a time: first each write's new copy and
	// the previous copy it replaces, then the invalidations. The fill
	// mapped every logical page, so every write has a previous copy.
	var prevs [routeBatch]uint32
	die, name := first, uint32(pagesPerDie)
	for k := 0; k < writes; k += routeBatch {
		batch := prevs[:min(writes-k, routeBatch)]
		for i := range batch {
			l := drawn[k+i]
			batch[i] = where[l]
			where[l] = uint32(die)<<shift | name
			if die++; die == n {
				die = 0
			}
			if die == first {
				name++
			}
		}
		for i, prev := range batch {
			st := &streams[prev>>shift]
			st.inv = append(st.inv, invOp{uint32(k + i), prev & mask})
		}
	}
	s.flushDie = die
	// Replay: each die on private copies of its block arrays and scalars,
	// its slice of p2l and the l2p words its pages translate back to.
	l2ps := make([][]uint32, min(runtime.GOMAXPROCS(0), n))
	return inParallel(n, func(d, w int) bool {
		return f.replayDie(d, &streams[d], drawn, &l2ps[w])
	})
}

// inParallel runs fn(i, worker) for i in 0..n-1 on min(GOMAXPROCS, n)
// goroutines, numbered by worker, and reports whether every call returned
// true. After a false it starts no further call.
func inParallel(n int, fn func(i, worker int) bool) bool {
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := range min(runtime.GOMAXPROCS(0), n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n && !failed.Load(); i = int(next.Add(1) - 1) {
				if !fn(i, w) {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	return !failed.Load()
}

// replayDie runs die d's share of the pass on a one-die view of the FTL:
// its host writes, every n-th of drawn, and its invalidations, each right
// after the write that caused it. Then it translates the view's names back
// to logical pages in p2l and l2p. l2p is the caller's scratch for the
// view's map. It reports false, leaving the die half replayed, at the
// first host write the die could not take in its turn.
func (f *ftl) replayDie(d int, st *dieStream, drawn []uint32, l2p *[]uint32) bool {
	v := f.dieView(d)
	n, pagesPerDie := len(f.dies), len(v.p2l)
	m := slices.Grow((*l2p)[:0], pagesPerDie+(len(drawn)-st.first+n-1)/n)
	m = m[:cap(m)]
	*l2p = m
	for i := range m {
		m[i] = invalidPage
	}
	for phys, name := range v.p2l {
		if name != invalidPage {
			m[name] = uint32(phys)
		}
	}
	v.l2p = m
	ds := &v.dies[0]
	name, k := uint32(pagesPerDie), st.first
	for i := 0; ; {
		if i < len(st.inv) && int(st.inv[i].k) < k {
			v.invalidate(st.inv[i].name)
			i++
			continue
		}
		if k >= len(drawn) {
			break
		}
		// With three free blocks dieWritable and canAlloc both hold and
		// touch nothing but dieWritable's memo.
		if len(ds.free) <= 2 && !(v.dieWritable(0) && v.canAlloc(0, 1)) {
			return false
		}
		v.writePage(name, 0)
		name++
		k += n
	}
	f.storeDie(d, v)
	base := uint32(d * pagesPerDie)
	for name, phys := range m[:name] {
		if phys == invalidPage {
			continue
		}
		var l uint32
		if name < pagesPerDie {
			l = st.fill[name]
		} else {
			l = drawn[(name-pagesPerDie)*n+st.first]
		}
		v.p2l[phys] = l
		f.l2p[l] = base + phys
	}
	return true
}

// dieView returns a one-die FTL for die d, its blocks and physical pages
// numbered from the die's first block. Its p2l is die d's slice of f's;
// its per-block arrays, bucket heads and per-die scalars are private
// copies, which storeDie writes back. Its l2p is the caller's to set.
func (f *ftl) dieView(d int) *ftl {
	bpd, ppb := f.blocksPerDie, f.ppb
	b0, b1 := d*bpd, (d+1)*bpd
	v := &ftl{
		p:            f.p,
		blocksPerDie: bpd,
		ppb:          ppb,
		blockShift:   f.blockShift,
		rowShift:     f.rowShift,
		gcTrigger:    f.gcTrigger,
		p2l:          f.p2l[b0*ppb : b1*ppb],
		valid:        slices.Clone(f.valid[b0:b1]),
		writePtr:     slices.Clone(f.writePtr[b0:b1]),
		erases:       slices.Clone(f.erases[b0:b1]),
		dies:         []dieState{f.dies[d]},
		bucketHead:   slices.Clone(f.bucketHead[d*(ppb+1) : (d+1)*(ppb+1)]),
		bNext:        slices.Clone(f.bNext[b0:b1]),
		bPrev:        slices.Clone(f.bPrev[b0:b1]),
		inBucket:     slices.Clone(f.inBucket[b0:b1]),
		minValid:     []int32{f.minValid[d]},
		dieVer:       []uint32{f.dieVer[d]},
		writableVer:  []uint32{f.writableVer[d]},
		writableOK:   []bool{f.writableOK[d]},
	}
	v.rebase(-uint32(b0))
	return v
}

// storeDie writes a one-die view of die d back into f: its block ids
// rebased to the device's numbering, then everything dieView copied.
func (f *ftl) storeDie(d int, v *ftl) {
	bpd, ppb := f.blocksPerDie, f.ppb
	b0 := d * bpd
	v.rebase(uint32(b0))
	copy(f.valid[b0:], v.valid)
	copy(f.writePtr[b0:], v.writePtr)
	copy(f.erases[b0:], v.erases)
	f.dies[d] = v.dies[0]
	copy(f.bucketHead[d*(ppb+1):], v.bucketHead)
	copy(f.bNext[b0:], v.bNext)
	copy(f.bPrev[b0:], v.bPrev)
	copy(f.inBucket[b0:], v.inBucket)
	f.minValid[d] = v.minValid[0]
	f.dieVer[d] = v.dieVer[0]
	f.writableVer[d] = v.writableVer[0]
	f.writableOK[d] = v.writableOK[0]
}

// rebase adds delta (mod 2^32) to every block id a one-die view holds: its
// open blocks, its free list and the bucket links.
func (v *ftl) rebase(delta uint32) {
	ds := &v.dies[0]
	ds.open += delta
	ds.gcOpen += delta
	for i := range ds.free {
		ds.free[i] += delta
	}
	for _, links := range [][]int32{v.bucketHead, v.bNext, v.bPrev} {
		for i, b := range links {
			if b != noBlock {
				links[i] = int32(uint32(b) + delta)
			}
		}
	}
}
