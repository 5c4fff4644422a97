package ssd

import (
	"fmt"
	"math/bits"
	"sync"
	"unsafe"
)

// invalidPage marks an unmapped logical or physical page.
const invalidPage = ^uint32(0)

// noBlock is the nil link of the intrusive bucket lists.
const noBlock = int32(-1)

// ftl is a page-mapped flash translation layer. Physical pages are numbered
// die-major: phys = (die*blocksPerDie + blockInDie)*pagesPerBlock + slot.
// PagesPerBlock and ProgramPages are powers of two (Params.Validate), so a
// page's block and NAND row are shifts of its number.
// The FTL is pure bookkeeping — it reports the GC work (page moves, erases)
// a call caused and the device converts that into die-timeline occupancy,
// which lets the pre-conditioners reuse the same code without timing.
//
// GC never moves a page to another die, so everything but the two maps and
// the counters is a die's own state (die, below).
type ftl struct {
	p            Params
	blocksPerDie int
	blockShift   uint // log2(PagesPerBlock): phys>>blockShift is the block
	rowShift     uint // log2(ProgramPages): phys>>rowShift is the NAND row

	l2p []uint32 // logical -> physical
	p2l []uint32 // physical -> logical; each die's pages are its die's p2l

	dies []*die

	// Cumulative counters.
	hostPages   uint64 // pages written by the host
	gcMoved     uint64 // pages relocated by GC
	gcErases    uint64 // blocks erased
	gcReclaims  uint64 // GC victim selections
	mappedPages uint64
}

// die is one die's FTL state, in allocations of its own. Its blocks are
// numbered from 0 within the die, and its page p is the device's physical
// page base+p. Its methods read and write this state alone, and reclaim
// also the l2p words of the pages it moves.
//
// Victim selection is O(1) amortized: every closed full block lives on an
// intrusive doubly-linked list indexed by valid count, so greedy GC reads
// the lowest non-empty bucket instead of scanning the die. The lists are
// maintained incrementally on invalidate/rotation/reclaim, and a lazy
// minimum hint makes the lowest-bucket query amortized constant time (the
// hint only decreases when an insert lands below it).
type die struct {
	ppb       int
	shift     uint   // log2(ppb)
	gcTrigger int    // free-block low watermark
	base      uint32 // the device's physical page of the die's page 0

	p2l []uint32 // die page -> logical page: the die's slice of ftl.p2l

	valid    []uint16 // per block: valid page count
	writePtr []uint16 // per block: next free slot (== ppb when full/closed)
	erases   []uint32 // per block: erase count

	free   []uint32 // free blocks
	open   uint32   // host open block
	gcOpen uint32   // relocation open block

	// Valid-count buckets. bucketHead[v] is the head block of the list of
	// blocks with v valid pages (noBlock when empty); bNext/bPrev are the
	// per-block intrusive links. A block is bucketed iff it is full
	// (writePtr == ppb) and neither open block; a free block is erased, so
	// never full. minValid is a lower bound on the lowest non-empty bucket,
	// advanced lazily at query time.
	bucketHead []int32
	bNext      []int32
	bPrev      []int32
	minValid   int32

	// victimOracle, when non-nil, makes pickVictim's choice. Nothing outside
	// ftl_diff_test.go sets it: the differential test installs the retained
	// O(blocksPerDie) reference scan on a twin FTL and drives both through
	// identical op sequences, asserting identical states.
	victimOracle func() (uint32, bool)
}

// gcWork reports the flash work a mutation caused beyond the page program
// itself, so the caller can charge time for it.
type gcWork struct {
	moved  int // pages relocated (each costs a read + a program)
	erases int // blocks erased
}

func (w *gcWork) add(o gcWork) { w.moved += o.moved; w.erases += o.erases }

func newFTL(p Params) *ftl {
	n := p.Dies()
	bpd := p.BlocksPerDie()
	ppb := p.PagesPerBlock
	pagesPerDie := bpd * ppb
	// The configured watermark assumes full-size over-provisioning; on a
	// small device (tests) it could exceed the OP slack itself and trigger
	// GC on a freshly filled drive, so clamp it to half the slack.
	logicalPerDie := (p.LogicalPages() + n*ppb - 1) / (n * ppb)
	trigger := p.GCTriggerFree
	if slack := bpd - logicalPerDie - 2; trigger > slack/2 {
		trigger = slack / 2
	}
	if trigger < 2 {
		trigger = 2
	}
	l2p, p2l := blankMaps(p.LogicalPages(), n*pagesPerDie)
	f := &ftl{
		p:            p,
		blocksPerDie: bpd,
		blockShift:   uint(bits.TrailingZeros(uint(ppb))),
		rowShift:     uint(bits.TrailingZeros(uint(p.ProgramPages))),
		l2p:          l2p,
		p2l:          p2l,
		dies:         make([]*die, n),
	}
	// The dies' arrays are carved from one allocation per array (a restored
	// device overwrites them all, and a device of 32 dies would otherwise
	// make 256 allocations for them).
	dies := make([]die, n)
	valid, writePtr := dieArrays[uint16](n, bpd), dieArrays[uint16](n, bpd)
	erases, free := dieArrays[uint32](n, bpd), dieArrays[uint32](n, bpd)
	heads := dieArrays[int32](n, ppb+1)
	next, prev := dieArrays[int32](n, bpd), dieArrays[int32](n, bpd)
	for _, links := range [][]int32{heads, next, prev} {
		for j := range links {
			links[j] = noBlock
		}
	}
	for i := range f.dies {
		base := i * pagesPerDie
		// Block 0 is the host open block and block 1 the GC open block; the
		// rest start free.
		d := &dies[i]
		*d = die{
			ppb:        ppb,
			shift:      f.blockShift,
			gcTrigger:  trigger,
			base:       uint32(base),
			p2l:        p2l[base : base+pagesPerDie : base+pagesPerDie],
			valid:      carve(valid, i, bpd),
			writePtr:   carve(writePtr, i, bpd),
			erases:     carve(erases, i, bpd),
			free:       carve(free, i, bpd)[:0],
			open:       0,
			gcOpen:     1,
			bucketHead: carve(heads, i, ppb+1),
			bNext:      carve(next, i, bpd),
			bPrev:      carve(prev, i, bpd),
			minValid:   int32(ppb), // no bucketed blocks yet
		}
		for b := 2; b < bpd; b++ {
			d.free = append(d.free, uint32(b))
		}
		f.dies[i] = d
	}
	return f
}

// dieArrays allocates n dies' arrays of l elements each in one buffer, a
// cache line apart, so the die pass's goroutines, each writing its own
// die's arrays, never write one line; carve hands them out.
func dieArrays[T any](n, l int) []T { return make([]T, n*dieStride[T](l)) }

// carve returns die i's array of length l (and capacity l) from a
// dieArrays buffer.
func carve[T any](buf []T, i, l int) []T {
	at := i * dieStride[T](l)
	return buf[at : at+l : at+l]
}

// dieStride is l elements of T and a 64-byte line after them.
func dieStride[T any](l int) int {
	var v T
	return l + 64/int(unsafe.Sizeof(v))
}

// blank is the l2p and p2l of a device with no page mapped: every word
// invalidPage.
type blank struct{ l2p, p2l []uint32 }

// blanks holds blank maps no device uses: restore puts back the ones
// newFTL gave a device when it gives the device a snapshot's, and the next
// newFTL of that size takes them instead of formatting its own.
var blanks sync.Pool // of *blank

// blankMaps returns an l2p of logical words and a p2l of physical words,
// every word invalidPage.
func blankMaps(logical, physical int) (l2p, p2l []uint32) {
	if b, ok := blanks.Get().(*blank); ok && len(b.l2p) == logical && len(b.p2l) == physical {
		return b.l2p, b.p2l
	}
	l2p, p2l = make([]uint32, logical), make([]uint32, physical)
	for _, m := range [][]uint32{l2p, p2l} {
		for i := range m {
			m[i] = invalidPage
		}
	}
	return l2p, p2l
}

// copyTo makes c a deep copy of the die whose pages are its slice of p2l, a
// device's map, in c's own arrays where they are long enough.
func (d *die) copyTo(c *die, p2l []uint32) {
	valid, writePtr, erases, free := c.valid[:0], c.writePtr[:0], c.erases[:0], c.free[:0]
	head, next, prev := c.bucketHead[:0], c.bNext[:0], c.bPrev[:0]
	*c = *d
	end := d.base + uint32(len(d.p2l))
	c.p2l = p2l[d.base:end:end]
	c.valid = append(valid, d.valid...)
	c.writePtr = append(writePtr, d.writePtr...)
	c.erases = append(erases, d.erases...)
	c.free = append(free, d.free...)
	c.bucketHead = append(head, d.bucketHead...)
	c.bNext = append(next, d.bNext...)
	c.bPrev = append(prev, d.bPrev...)
}

// dieOfPhys returns the die holding a physical page.
func (f *ftl) dieOfPhys(phys uint32) int { return int(phys>>f.blockShift) / f.blocksPerDie }

// channelOfDie maps a die to its NAND channel.
func (f *ftl) channelOfDie(die int) int { return die % f.p.Channels }

// lookup returns the physical page for a logical page, or invalidPage.
func (f *ftl) lookup(logical uint32) uint32 { return f.l2p[logical] }

// invalidate clears the current mapping of a logical page, if any.
func (f *ftl) invalidate(logical uint32) {
	old := f.l2p[logical]
	if old == invalidPage {
		return
	}
	f.l2p[logical] = invalidPage
	d := f.dies[f.dieOfPhys(old)]
	d.invalidate(old - d.base)
	f.mappedPages--
}

// writePage maps a logical page to a freshly allocated physical page on
// die, invalidating any previous mapping, and reports the GC work incurred.
// The caller has checked the die's canAlloc(n) for the n pages it writes
// there.
func (f *ftl) writePage(logical uint32, die int) gcWork {
	d := f.dies[die]
	phys, work := d.allocHost(f.l2p)
	f.invalidate(logical)
	d.program(phys, logical, f.l2p)
	f.mappedPages++
	f.hostPages++
	f.gcMoved += uint64(work.moved)
	f.gcErases += uint64(work.erases)
	f.gcReclaims += uint64(work.erases)
	return work
}

// trim invalidates a span of logical pages (the blobstore frees blobs with
// it). It reports nothing to charge: trims are metadata-only. The span
// walk batches the valid-count/bucket update per touched physical block:
// sequentially written data — the blobstore's layout — invalidates whole
// blocks with a single bucket move instead of one per page.
func (f *ftl) trim(first, count uint32) {
	curBlk := invalidPage
	delta := uint16(0)
	for i := uint32(0); i < count; i++ {
		logical := first + i
		old := f.l2p[logical]
		if old == invalidPage {
			continue
		}
		f.l2p[logical] = invalidPage
		f.p2l[old] = invalidPage
		f.mappedPages--
		blk := old >> f.blockShift
		if blk != curBlk {
			f.trimFlush(curBlk, delta)
			curBlk, delta = blk, 0
		}
		delta++
	}
	f.trimFlush(curBlk, delta)
}

// trimFlush applies a batched valid-count decrement to one device block.
func (f *ftl) trimFlush(blk uint32, delta uint16) {
	if blk == invalidPage || delta == 0 {
		return
	}
	i := int(blk) / f.blocksPerDie
	f.dies[i].drop(blk-uint32(i*f.blocksPerDie), delta)
}

// freeBlocks returns the total free blocks across dies (for tests/stats).
func (f *ftl) freeBlocks() int {
	n := 0
	for _, d := range f.dies {
		n += len(d.free)
	}
	return n
}

// writeAmplification returns (host+gc)/host page programs so far.
func (f *ftl) writeAmplification() float64 {
	if f.hostPages == 0 {
		return 1
	}
	return float64(f.hostPages+f.gcMoved) / float64(f.hostPages)
}

// bucketAdd links a closed full block into the bucket for its current valid
// count and lowers the minimum hint if it lands below it.
func (d *die) bucketAdd(b uint32) {
	v := int32(d.valid[b])
	h := d.bucketHead[v]
	d.bNext[b] = h
	d.bPrev[b] = noBlock
	if h != noBlock {
		d.bPrev[h] = int32(b)
	}
	d.bucketHead[v] = int32(b)
	if v < d.minValid {
		d.minValid = v
	}
}

// bucketDel unlinks a block from the bucket matching its current valid
// count. The minimum hint stays a valid lower bound and is advanced lazily.
func (d *die) bucketDel(b uint32) {
	if p := d.bPrev[b]; p != noBlock {
		d.bNext[p] = d.bNext[b]
	} else {
		d.bucketHead[d.valid[b]] = d.bNext[b]
	}
	if n := d.bNext[b]; n != noBlock {
		d.bPrev[n] = d.bPrev[b]
	}
}

// minValidOf returns the valid count of the die's best victim bucket,
// advancing the lazy minimum hint, or false when no victim exists (a
// completely valid block is useless to GC, so bucket ppb never qualifies).
func (d *die) minValidOf() (int32, bool) {
	v := d.minValid
	for int(v) < d.ppb && d.bucketHead[v] == noBlock {
		v++
	}
	d.minValid = v
	if int(v) >= d.ppb {
		return 0, false
	}
	return v, true
}

// invalidate unmaps the die's page phys.
func (d *die) invalidate(phys uint32) {
	d.p2l[phys] = invalidPage
	d.drop(phys>>d.shift, 1)
}

// drop takes n valid pages off block b, moving it between buckets at most
// once. A block holding a valid page is full unless it is one of the open
// blocks, so it is bucketed unless it is open.
func (d *die) drop(b uint32, n uint16) {
	if b != d.open && b != d.gcOpen {
		d.bucketDel(b)
		d.valid[b] -= n
		d.bucketAdd(b)
	} else {
		d.valid[b] -= n
	}
}

// program records that the die's page phys, which allocHost returned, holds
// logical, in p2l and in l2p.
func (d *die) program(phys, logical uint32, l2p []uint32) {
	d.p2l[phys] = logical
	l2p[logical] = d.base + phys
	d.valid[phys>>d.shift]++
}

// allocHost takes the next free slot in the host open block, rotating to a
// fresh block (and possibly garbage-collecting, which moves pages' words of
// l2p) when it fills. The outgoing open block is closed and becomes a GC
// candidate the moment the open pointer moves off it.
func (d *die) allocHost(l2p []uint32) (uint32, gcWork) {
	var work gcWork
	if d.writePtr[d.open] == uint16(d.ppb) {
		var blk uint32
		blk, work = d.popFree(l2p)
		d.bucketAdd(d.open)
		d.open = blk
	}
	phys := d.open<<d.shift | uint32(d.writePtr[d.open])
	d.writePtr[d.open]++
	return phys, work
}

// popFree removes one free block, running GC first when the die is at its
// low watermark.
func (d *die) popFree(l2p []uint32) (uint32, gcWork) {
	var work gcWork
	if len(d.free) <= d.gcTrigger {
		work = d.collect(l2p)
	}
	if len(d.free) == 0 {
		panic(fmt.Sprintf("ssd: die %d has no free block (canAlloc guard bypassed)", int(d.base)/len(d.p2l)))
	}
	blk := d.free[len(d.free)-1]
	d.free = d.free[:len(d.free)-1]
	return blk, work
}

// collect runs greedy garbage collection until the die is back above the
// low watermark or no reclaimable victim remains.
func (d *die) collect(l2p []uint32) gcWork {
	var work gcWork
	for len(d.free) <= d.gcTrigger {
		victim, ok := d.pickVictim()
		if !ok {
			break
		}
		// Relocation feasibility: the victim's valid pages must fit in the
		// GC open block's remaining slots plus the free pool, or the die
		// cannot safely reclaim right now.
		slack := int(uint16(d.ppb)-d.writePtr[d.gcOpen]) + len(d.free)*d.ppb
		if slack < int(d.valid[victim]) {
			break
		}
		work.add(d.reclaim(victim, l2p))
	}
	return work
}

// pickVictim returns the closed full block with the fewest valid pages,
// breaking ties toward the lowest block id — exactly the choice the
// reference scan makes. The bucket for the lazy minimum valid count holds
// precisely the candidate set, so only that (typically tiny) list is
// walked for the tie-break. The hint advances before the oracle is asked,
// so a twin on the oracle keeps the same hint.
func (d *die) pickVictim() (uint32, bool) {
	v, ok := d.minValidOf()
	if d.victimOracle != nil {
		return d.victimOracle()
	}
	if !ok {
		return invalidPage, false
	}
	best := invalidPage
	for b := d.bucketHead[v]; b != noBlock; b = d.bNext[b] {
		if uint32(b) < best {
			best = uint32(b)
		}
	}
	return best, best != invalidPage
}

// pickVictimSlow is the retained reference implementation: a linear scan of
// the die for the full block with the fewest valid pages, excluding the
// open blocks. A completely valid victim is useless (GC would tread water),
// so it also requires valid < pagesPerBlock. The differential tests (and
// checkInvariants) assert it always agrees with the bucketed fast path.
func (d *die) pickVictimSlow() (uint32, bool) {
	best := invalidPage
	bestValid := uint16(d.ppb) // must strictly improve
	for b := range uint32(len(d.valid)) {
		if b == d.open || b == d.gcOpen {
			continue
		}
		if d.writePtr[b] != uint16(d.ppb) {
			continue // not full: free or partially written open remnant
		}
		if v := d.valid[b]; v < bestValid {
			best, bestValid = b, v
		}
	}
	return best, best != invalidPage
}

// reclaim relocates the victim's valid pages into the GC open block and
// erases it, in one pass over the victim's p2l slice with the GC open
// block's cursor and its count of pages moved in held in locals; each moved
// page's word of l2p follows it. When the GC open block fills it closes,
// becoming a victim candidate like any other full block, and the next free
// block takes its place (never recursing into GC). The free list cannot be
// empty then: collect only reclaims a victim whose valid pages fit the GC
// open block's slack plus the free pool, and every reclaim returns its
// victim to the free list before the GC open block can fill again.
func (d *die) reclaim(victim uint32, l2p []uint32) gcWork {
	d.bucketDel(victim)
	ppb := uint32(d.ppb)
	p2l, shift, base := d.p2l, d.shift, d.base
	dstBlk := d.gcOpen
	wp := uint32(d.writePtr[dstBlk])
	added := uint16(0) // pages moved into dstBlk, not yet in valid
	moved := 0
	start := victim << shift
	pages := p2l[start : start+ppb]
	for i, logical := range pages {
		if logical == invalidPage {
			continue
		}
		if wp == ppb {
			if len(d.free) == 0 {
				panic("ssd: GC starved of free blocks (feasibility guard bypassed)")
			}
			d.writePtr[dstBlk] = uint16(wp)
			d.valid[dstBlk] += added
			d.bucketAdd(dstBlk)
			dstBlk = d.free[len(d.free)-1]
			d.free = d.free[:len(d.free)-1]
			wp = uint32(d.writePtr[dstBlk])
			added = 0
		}
		dst := dstBlk<<shift | wp
		wp++
		pages[i] = invalidPage
		l2p[logical] = base + dst
		p2l[dst] = logical
		added++
		moved++
	}
	d.valid[dstBlk] += added
	d.writePtr[dstBlk] = uint16(wp)
	d.gcOpen = dstBlk
	d.valid[victim] = 0
	d.writePtr[victim] = 0
	d.erases[victim]++
	d.free = append(d.free, victim)
	return gcWork{moved: moved, erases: 1}
}

// takes reports whether the die takes its round-robin turn for n host
// pages: it is writable and can allocate them.
func (d *die) takes(n int) bool { return d.writable() && d.canAlloc(n) }

// writable reports whether the die can accept new host writes without
// risking allocation starvation: either it has free headroom, or garbage
// collection on it can still make progress.
func (d *die) writable() bool {
	if len(d.free) > 2 {
		return true
	}
	if len(d.free) == 0 {
		return false
	}
	v, ok := d.minValidOf()
	if !ok {
		return false
	}
	slack := int(uint16(d.ppb)-d.writePtr[d.gcOpen]) + len(d.free)*d.ppb
	return slack >= int(v)
}

// canAlloc reports whether n more host pages (n ≤ pagesPerBlock) can go to
// the die now without taking its last free block: they fit the host open
// block, or a second free block is there, or GC would leave one. The last
// free block is GC's reserve: while a die keeps it, any victim fits the
// die's relocation space, so a die that cannot take host pages now can
// again once writes elsewhere invalidate some of its pages. Host pages go
// only to dies that pass, so allocation never runs dry.
func (d *die) canAlloc(n int) bool {
	if int(d.writePtr[d.open])+n <= d.ppb || len(d.free) >= 2 {
		return true
	}
	// Replay collect on counts alone: victims in ascending valid count, each
	// relocated into the GC open block (which rotates onto a free block when
	// it fills) and then erased.
	free, room := len(d.free), d.ppb-int(d.writePtr[d.gcOpen])
	v, ok := d.minValidOf()
	for ; ok && int(v) < d.ppb; v++ {
		for b := d.bucketHead[v]; b != noBlock; b = d.bNext[b] {
			switch {
			case free >= 2:
				return true
			case int(v) <= room:
				room -= int(v)
				free++
			case free > 0:
				room += d.ppb - int(v)
			default:
				return false // collect stops at a victim that does not fit
			}
		}
	}
	return free >= 2
}

// checkInvariants validates the mapping bidirectionality, then each die's
// valid counts, space and bucket lists (die.check); used by property tests.
// It is O(pages) and changes nothing.
func (f *ftl) checkInvariants() error {
	validCount := make([]uint16, len(f.dies)*f.blocksPerDie)
	mapped := uint64(0)
	for l, phys := range f.l2p {
		if phys == invalidPage {
			continue
		}
		if f.p2l[phys] != uint32(l) {
			return fmt.Errorf("ftl: l2p/p2l mismatch at logical %d", l)
		}
		validCount[phys>>f.blockShift]++
		mapped++
	}
	for p, l := range f.p2l {
		if l != invalidPage && f.l2p[l] != uint32(p) {
			return fmt.Errorf("ftl: p2l points at logical %d not mapped back", l)
		}
	}
	if mapped != f.mappedPages {
		return fmt.Errorf("ftl: mappedPages %d, recount %d", f.mappedPages, mapped)
	}
	for i, d := range f.dies {
		if err := d.check(validCount[i*f.blocksPerDie : (i+1)*f.blocksPerDie]); err != nil {
			return fmt.Errorf("ftl: die %d: %v", i, err)
		}
	}
	return nil
}

// check audits the die against validCount, its blocks' valid pages counted
// from the maps. The die accounts for all of its space: free blocks ×
// pagesPerBlock + the unwritten slots of its host and GC open blocks + its
// written (valid or invalid) pages = blocksPerDie × pagesPerBlock. A free
// block is erased, listed once, and neither open nor bucketed. A block is
// linked into the bucket of its valid count exactly when it is full,
// closed and not free, the lists' back links and the lazy minimum hint
// hold, and the bucketed victim is the reference scan's.
func (d *die) check(validCount []uint16) error {
	bpd := len(d.valid)
	for b, v := range validCount {
		if d.valid[b] != v {
			return fmt.Errorf("block %d valid count %d, recount %d", b, d.valid[b], v)
		}
		if v > 0 && d.writePtr[b] == 0 {
			return fmt.Errorf("block %d has valid pages but zero write pointer", b)
		}
	}
	if d.open == d.gcOpen || int(d.open) >= bpd || int(d.gcOpen) >= bpd {
		return fmt.Errorf("open blocks %d and %d", d.open, d.gcOpen)
	}
	isFree := make([]bool, bpd)
	for _, b := range d.free {
		switch {
		case int(b) >= bpd:
			return fmt.Errorf("free block %d beyond the die", b)
		case isFree[b]:
			return fmt.Errorf("block %d free twice", b)
		case b == d.open || b == d.gcOpen:
			return fmt.Errorf("block %d both free and open", b)
		case d.writePtr[b] != 0 || d.valid[b] != 0:
			return fmt.Errorf("free block %d not erased (writePtr %d, valid %d)", b, d.writePtr[b], d.valid[b])
		}
		isFree[b] = true
	}
	pages := (len(d.free)+2)*d.ppb - int(d.writePtr[d.open]) - int(d.writePtr[d.gcOpen])
	for _, wp := range d.writePtr {
		pages += int(wp)
	}
	if want := bpd * d.ppb; pages != want {
		return fmt.Errorf("accounts for %d pages of %d", pages, want)
	}
	linked := make([]bool, bpd)
	for v, h := range d.bucketHead {
		prev := noBlock
		for b := h; b != noBlock; b = d.bNext[b] {
			switch {
			case int(b) >= bpd || b < 0:
				return fmt.Errorf("bucket %d links block %d beyond the die", v, b)
			case linked[b]:
				return fmt.Errorf("block %d linked into two buckets", b)
			case int(d.valid[b]) != v:
				return fmt.Errorf("block %d in bucket %d but valid %d", b, v, d.valid[b])
			case d.bPrev[b] != prev:
				return fmt.Errorf("block %d prev link %d, want %d", b, d.bPrev[b], prev)
			}
			linked[b] = true
			prev = b
		}
		if v < int(d.minValid) && h != noBlock {
			return fmt.Errorf("min hint %d above non-empty bucket %d", d.minValid, v)
		}
	}
	for b := range uint32(bpd) {
		want := d.writePtr[b] == uint16(d.ppb) && b != d.open && b != d.gcOpen && !isFree[b]
		if want != linked[b] {
			return fmt.Errorf("block %d linked %v, want %v (writePtr %d, valid %d)",
				b, linked[b], want, d.writePtr[b], d.valid[b])
		}
	}
	if d.victimOracle == nil {
		// pickVictim advances the lazy minimum hint: put it back, so that
		// the audit leaves the die as it found it.
		hint := d.minValid
		fastB, fastOK := d.pickVictim()
		d.minValid = hint
		slowB, slowOK := d.pickVictimSlow()
		if fastB != slowB || fastOK != slowOK {
			return fmt.Errorf("victim fast (%d,%v) != slow (%d,%v)", fastB, fastOK, slowB, slowOK)
		}
	}
	return nil
}
