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
// then replays its writes and invalidations on its own state, through the
// die methods the device's writes use, with an l2p indexed by a die-local
// page name, and the result is translated back. A replay asks the die's
// takes before every host write, exactly as pickFlushDie would; if any die
// would skip its turn, the pass reports false and the caller starts over
// from the fill through the per-page loop. Either way the final state is
// the one the per-page loop leaves. Naming the fill's pages and the
// replays write disjoint memory, so both run on up to GOMAXPROCS
// goroutines; the result does not depend on how many. A replay writes its
// die's own allocations, its die's slice of p2l (148 KB a die at 4 GiB,
// two lines of it shared) and the l2p words its pages translate back to;
// the die's scalars it keeps in a copy of the die's struct, assigned back
// once.

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
	pagesPerDie := len(f.p2l) / n
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
		p2l := f.dies[d].p2l
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
	// Replay: each die on its own state, its slice of p2l and the l2p words
	// its pages translate back to.
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

// replayDie runs die i's share of the pass on the die's own state: its host
// writes, every n-th of drawn, and its invalidations, each right after the
// write that caused it. Its l2p is a map indexed by the die-local page
// names, in the caller's scratch; afterwards it translates the names back
// to logical pages in p2l and l2p. It reports false, leaving the die half
// replayed, at the first host write the die could not take in its turn.
func (f *ftl) replayDie(i int, st *dieStream, drawn []uint32, l2p *[]uint32) bool {
	// A copy of the die's struct keeps its scalars, bumped on every write
	// and invalidation, off any cache line another replay writes.
	d := *f.dies[i]
	n, pagesPerDie := len(f.dies), len(d.p2l)
	m := slices.Grow((*l2p)[:0], pagesPerDie+(len(drawn)-st.first+n-1)/n)
	m = m[:cap(m)]
	*l2p = m
	for j := range m {
		m[j] = invalidPage
	}
	for phys, name := range d.p2l {
		if name != invalidPage {
			m[name] = d.base + uint32(phys)
		}
	}
	name, k := uint32(pagesPerDie), st.first
	for j := 0; ; {
		if j < len(st.inv) && int(st.inv[j].k) < k {
			x := st.inv[j].name
			d.invalidate(m[x] - d.base)
			m[x] = invalidPage
			j++
			continue
		}
		if k >= len(drawn) {
			break
		}
		if !d.takes(1) {
			return false
		}
		phys, _ := d.allocHost(m)
		d.program(phys, name, m)
		name++
		k += n
	}
	*f.dies[i] = d
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
		d.p2l[phys-d.base] = l
		f.l2p[l] = phys
	}
	return true
}
