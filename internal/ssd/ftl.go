package ssd

import (
	"fmt"
	"math/bits"
	"sync"
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
// Victim selection is O(1) amortized: every closed full block lives on an
// intrusive doubly-linked list indexed by (die, valid count), so greedy GC
// reads the lowest non-empty bucket instead of scanning the die. The lists
// are maintained incrementally on invalidate/rotation/reclaim, and a lazy
// per-die minimum hint makes the lowest-bucket query amortized constant
// time (the hint only decreases when an insert lands below it).
type ftl struct {
	p            Params
	blocksPerDie int
	ppb          int
	blockShift   uint // log2(ppb): phys>>blockShift is the block
	rowShift     uint // log2(ProgramPages): phys>>rowShift is the NAND row
	gcTrigger    int  // effective per-die free-block low watermark

	l2p []uint32 // logical -> physical
	p2l []uint32 // physical -> logical (for GC relocation)

	valid    []uint16 // per block: valid page count
	writePtr []uint16 // per block: next free slot (== ppb when full/closed)
	erases   []uint32 // per block: erase count

	dies []dieState

	// Valid-count buckets. bucketHead is indexed die*(ppb+1)+valid and
	// holds the head block of that bucket's list (noBlock when empty);
	// bNext/bPrev are the per-block intrusive links and inBucket the
	// membership bit. A block is bucketed iff it is full (writePtr == ppb)
	// and closed (neither the die's host open block nor its GC open block
	// nor on the free list). minValid[die] is a lower bound on the die's
	// lowest non-empty bucket, advanced lazily at query time.
	bucketHead []int32
	bNext      []int32
	bPrev      []int32
	inBucket   []bool
	minValid   []int32

	// dieVer counts mutations that can change a die's GC feasibility
	// (free-pool size, bucket contents, GC open block slack). dieWritable
	// memoizes its verdict against it, so a flush round re-derives
	// feasibility only for dies whose state moved since the last batch.
	// Being only a memo version, it needs one bump per mutation, not one
	// per page the mutation moves.
	dieVer      []uint32
	writableVer []uint32 // dieVer+1 at memo time; 0 = no memo
	writableOK  []bool

	// victimOracle, when non-nil, makes pickVictim's choice. Nothing outside
	// ftl_diff_test.go sets it: the differential test installs the retained
	// O(blocksPerDie) reference scan on a twin FTL and drives both through
	// identical op sequences, asserting identical states.
	victimOracle func(die int) (uint32, bool)

	// Cumulative counters.
	hostPages   uint64 // pages written by the host
	gcMoved     uint64 // pages relocated by GC
	gcErases    uint64 // blocks erased
	gcReclaims  uint64 // GC victim selections
	mappedPages uint64
}

type dieState struct {
	free   []uint32 // free block ids (global)
	open   uint32   // host open block
	gcOpen uint32   // relocation open block
}

// gcWork reports the flash work a mutation caused beyond the page program
// itself, so the caller can charge time for it.
type gcWork struct {
	moved  int // pages relocated (each costs a read + a program)
	erases int // blocks erased
}

func (w *gcWork) add(o gcWork) { w.moved += o.moved; w.erases += o.erases }

func newFTL(p Params) *ftl {
	dies := p.Dies()
	bpd := p.BlocksPerDie()
	nblocks := dies * bpd
	npages := nblocks * p.PagesPerBlock
	// The configured watermark assumes full-size over-provisioning; on a
	// small device (tests) it could exceed the OP slack itself and trigger
	// GC on a freshly filled drive, so clamp it to half the slack.
	logicalPerDie := (p.LogicalPages() + dies*p.PagesPerBlock - 1) / (dies * p.PagesPerBlock)
	trigger := p.GCTriggerFree
	if slack := bpd - logicalPerDie - 2; trigger > slack/2 {
		trigger = slack / 2
	}
	if trigger < 2 {
		trigger = 2
	}
	l2p, p2l := blankMaps(p.LogicalPages(), npages)
	f := &ftl{
		p:            p,
		blocksPerDie: bpd,
		ppb:          p.PagesPerBlock,
		blockShift:   uint(bits.TrailingZeros(uint(p.PagesPerBlock))),
		rowShift:     uint(bits.TrailingZeros(uint(p.ProgramPages))),
		gcTrigger:    trigger,
		l2p:          l2p,
		p2l:          p2l,
		valid:        make([]uint16, nblocks),
		writePtr:     make([]uint16, nblocks),
		erases:       make([]uint32, nblocks),
		dies:         make([]dieState, dies),
		bucketHead:   make([]int32, dies*(p.PagesPerBlock+1)),
		bNext:        make([]int32, nblocks),
		bPrev:        make([]int32, nblocks),
		inBucket:     make([]bool, nblocks),
		minValid:     make([]int32, dies),
		dieVer:       make([]uint32, dies),
		writableVer:  make([]uint32, dies),
		writableOK:   make([]bool, dies),
	}
	for i := range f.bucketHead {
		f.bucketHead[i] = noBlock
	}
	for i := range f.bNext {
		f.bNext[i] = noBlock
		f.bPrev[i] = noBlock
	}
	for d := range f.dies {
		ds := &f.dies[d]
		base := uint32(d * bpd)
		// Reserve block 0 as the host open block and block 1 as the GC open
		// block; the rest start free.
		ds.open = base
		ds.gcOpen = base + 1
		for b := 2; b < bpd; b++ {
			ds.free = append(ds.free, base+uint32(b))
		}
		f.minValid[d] = int32(f.ppb) // no bucketed blocks yet
	}
	return f
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

// dieOfBlock returns the die owning a global block id.
func (f *ftl) dieOfBlock(b uint32) int { return int(b) / f.blocksPerDie }

// dieOfPhys returns the die holding a physical page.
func (f *ftl) dieOfPhys(phys uint32) int { return f.dieOfBlock(phys >> f.blockShift) }

// channelOfDie maps a die to its NAND channel.
func (f *ftl) channelOfDie(die int) int { return die % f.p.Channels }

// lookup returns the physical page for a logical page, or invalidPage.
func (f *ftl) lookup(logical uint32) uint32 { return f.l2p[logical] }

// bucketAdd links a closed full block of the die into the die's bucket for
// its current valid count and lowers the die's minimum hint if it lands
// below it.
func (f *ftl) bucketAdd(die int, b uint32) {
	v := int32(f.valid[b])
	idx := die*(f.ppb+1) + int(v)
	h := f.bucketHead[idx]
	f.bNext[b] = h
	f.bPrev[b] = noBlock
	if h != noBlock {
		f.bPrev[h] = int32(b)
	}
	f.bucketHead[idx] = int32(b)
	f.inBucket[b] = true
	if v < f.minValid[die] {
		f.minValid[die] = v
	}
}

// bucketDel unlinks a block of the die from the bucket matching its current
// valid count. The minimum hint stays a valid lower bound and is advanced
// lazily.
func (f *ftl) bucketDel(die int, b uint32) {
	idx := die*(f.ppb+1) + int(f.valid[b])
	if p := f.bPrev[b]; p != noBlock {
		f.bNext[p] = f.bNext[b]
	} else {
		f.bucketHead[idx] = f.bNext[b]
	}
	if n := f.bNext[b]; n != noBlock {
		f.bPrev[n] = f.bPrev[b]
	}
	f.inBucket[b] = false
}

// minValidOf returns the valid count of the die's best victim bucket,
// advancing the lazy minimum hint, or false when no victim exists (a
// completely valid block is useless to GC, so bucket ppb never qualifies).
func (f *ftl) minValidOf(die int) (int32, bool) {
	base := die * (f.ppb + 1)
	v := f.minValid[die]
	for int(v) < f.ppb && f.bucketHead[base+int(v)] == noBlock {
		v++
	}
	f.minValid[die] = v
	if int(v) >= f.ppb {
		return 0, false
	}
	return v, true
}

// invalidate clears the current mapping of a logical page, if any.
func (f *ftl) invalidate(logical uint32) {
	old := f.l2p[logical]
	if old == invalidPage {
		return
	}
	f.l2p[logical] = invalidPage
	f.p2l[old] = invalidPage
	blk := old >> f.blockShift
	die := f.dieOfBlock(blk)
	if f.inBucket[blk] {
		f.bucketDel(die, blk)
		f.valid[blk]--
		f.bucketAdd(die, blk)
	} else {
		f.valid[blk]--
	}
	f.mappedPages--
	f.dieVer[die]++
}

// writePage maps a logical page to a freshly allocated physical page on
// die, invalidating any previous mapping, and reports the GC work incurred.
// The caller has checked canAlloc(die, n) for the n pages it writes there.
func (f *ftl) writePage(logical uint32, die int) gcWork {
	phys, work := f.allocHost(die)
	f.invalidate(logical)
	f.l2p[logical] = phys
	f.p2l[phys] = logical
	f.valid[phys>>f.blockShift]++
	f.mappedPages++
	f.hostPages++
	return work
}

// allocHost takes the next free slot in the die's host open block, rotating
// to a fresh block (and possibly garbage-collecting) when it fills. The
// outgoing open block is closed and becomes a GC candidate the moment the
// open pointer moves off it.
func (f *ftl) allocHost(die int) (uint32, gcWork) {
	var work gcWork
	ds := &f.dies[die]
	if f.writePtr[ds.open] == uint16(f.ppb) {
		var blk uint32
		blk, work = f.popFree(die)
		f.bucketAdd(die, ds.open)
		ds.open = blk
	}
	phys := ds.open<<f.blockShift | uint32(f.writePtr[ds.open])
	f.writePtr[ds.open]++
	return phys, work
}

// popFree removes one free block from the die, running GC first when the
// die is at its low watermark.
func (f *ftl) popFree(die int) (uint32, gcWork) {
	var work gcWork
	ds := &f.dies[die]
	if len(ds.free) <= f.gcTrigger {
		work = f.collect(die)
	}
	if len(ds.free) == 0 {
		panic(fmt.Sprintf("ssd: die %d has no free block (canAlloc guard bypassed)", die))
	}
	blk := ds.free[len(ds.free)-1]
	ds.free = ds.free[:len(ds.free)-1]
	f.dieVer[die]++
	return blk, work
}

// collect runs greedy garbage collection on a die until it is back above
// the low watermark or no reclaimable victim remains.
func (f *ftl) collect(die int) gcWork {
	var work gcWork
	ds := &f.dies[die]
	for len(ds.free) <= f.gcTrigger {
		victim, ok := f.pickVictim(die)
		if !ok {
			break
		}
		// Relocation feasibility: the victim's valid pages must fit in the
		// GC open block's remaining slots plus the free pool, or the die
		// cannot safely reclaim right now.
		slack := int(uint16(f.ppb)-f.writePtr[ds.gcOpen]) + len(ds.free)*f.ppb
		if slack < int(f.valid[victim]) {
			break
		}
		work.add(f.reclaim(die, victim))
	}
	return work
}

// pickVictim returns the closed full block with the fewest valid pages on
// the die, breaking ties toward the lowest block id — exactly the choice
// the reference scan makes. The bucket for the lazy minimum valid count
// holds precisely the candidate set, so only that (typically tiny) list is
// walked for the tie-break.
func (f *ftl) pickVictim(die int) (uint32, bool) {
	if f.victimOracle != nil {
		return f.victimOracle(die)
	}
	v, ok := f.minValidOf(die)
	if !ok {
		return invalidPage, false
	}
	best := invalidPage
	for b := f.bucketHead[die*(f.ppb+1)+int(v)]; b != noBlock; b = f.bNext[b] {
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
func (f *ftl) pickVictimSlow(die int) (uint32, bool) {
	ds := &f.dies[die]
	base := uint32(die * f.blocksPerDie)
	best := invalidPage
	bestValid := uint16(f.ppb) // must strictly improve
	for b := base; b < base+uint32(f.blocksPerDie); b++ {
		if b == ds.open || b == ds.gcOpen {
			continue
		}
		if f.writePtr[b] != uint16(f.ppb) {
			continue // not full: free or partially written open remnant
		}
		if v := f.valid[b]; v < bestValid {
			best, bestValid = b, v
		}
	}
	return best, best != invalidPage
}

// reclaim relocates the victim's valid pages into the die's GC open block
// and erases it, in one pass over the victim's p2l slice with the GC open
// block's cursor and its count of pages moved in held in locals. When the
// GC open block fills it closes, becoming a victim candidate like any other
// full block, and the next free block takes its place (never recursing
// into GC). The free list cannot be
// empty then: collect only reclaims a victim whose valid pages fit the GC
// open block's slack plus the free pool, and every reclaim returns its
// victim to the free list before the GC open block can fill again.
func (f *ftl) reclaim(die int, victim uint32) gcWork {
	ds := &f.dies[die]
	f.bucketDel(die, victim)
	ppb := uint32(f.ppb)
	l2p, p2l, shift := f.l2p, f.p2l, f.blockShift
	dstBlk := ds.gcOpen
	wp := uint32(f.writePtr[dstBlk])
	added := uint16(0) // pages moved into dstBlk, not yet in valid
	moved := 0
	start := victim << shift
	pages := p2l[start : start+ppb]
	for i, logical := range pages {
		if logical == invalidPage {
			continue
		}
		if wp == ppb {
			if len(ds.free) == 0 {
				panic("ssd: GC starved of free blocks (feasibility guard bypassed)")
			}
			f.writePtr[dstBlk] = uint16(wp)
			f.valid[dstBlk] += added
			f.bucketAdd(die, dstBlk)
			dstBlk = ds.free[len(ds.free)-1]
			ds.free = ds.free[:len(ds.free)-1]
			wp = uint32(f.writePtr[dstBlk])
			added = 0
		}
		dst := dstBlk<<shift | wp
		wp++
		pages[i] = invalidPage
		l2p[logical] = dst
		p2l[dst] = logical
		added++
		moved++
	}
	f.valid[dstBlk] += added
	f.writePtr[dstBlk] = uint16(wp)
	ds.gcOpen = dstBlk
	f.valid[victim] = 0
	f.writePtr[victim] = 0
	f.erases[victim]++
	f.gcMoved += uint64(moved)
	f.gcErases++
	f.gcReclaims++
	ds.free = append(ds.free, victim)
	f.dieVer[die]++
	return gcWork{moved: moved, erases: 1}
}

// freeOf returns the die's free block count.
func (f *ftl) freeOf(die int) int { return len(f.dies[die].free) }

// dieWritable reports whether the die can accept new host writes without
// risking allocation starvation: either it has free headroom, or garbage
// collection on it can still make progress. The verdict is memoized
// against the die's mutation version, so a flush round probing the same
// stalled die repeatedly pays one derivation.
func (f *ftl) dieWritable(die int) bool {
	ver := f.dieVer[die] + 1
	if f.writableVer[die] == ver {
		return f.writableOK[die]
	}
	ok := f.dieWritableSlow(die)
	f.writableVer[die] = ver
	f.writableOK[die] = ok
	return ok
}

func (f *ftl) dieWritableSlow(die int) bool {
	ds := &f.dies[die]
	if len(ds.free) > 2 {
		return true
	}
	if len(ds.free) == 0 {
		return false
	}
	v, ok := f.minValidOf(die)
	if !ok {
		return false
	}
	slack := int(uint16(f.ppb)-f.writePtr[ds.gcOpen]) + len(ds.free)*f.ppb
	return slack >= int(v)
}

// canAlloc reports whether n more host pages (n ≤ pagesPerBlock) can go to
// the die now without taking its last free block: they fit the host open
// block, or a second free block is there, or GC would leave one. The last
// free block is GC's reserve: while a die keeps it, any victim fits the
// die's relocation space, so a die that cannot take host pages now can
// again once writes elsewhere invalidate some of its pages. Host pages go
// only to dies that pass, so allocation never runs dry.
func (f *ftl) canAlloc(die, n int) bool {
	ds := &f.dies[die]
	if int(f.writePtr[ds.open])+n <= f.ppb || len(ds.free) >= 2 {
		return true
	}
	// Replay collect on counts alone: victims in ascending valid count, each
	// relocated into the GC open block (which rotates onto a free block when
	// it fills) and then erased.
	free, room := len(ds.free), f.ppb-int(f.writePtr[ds.gcOpen])
	v, ok := f.minValidOf(die)
	for ; ok && int(v) < f.ppb; v++ {
		for b := f.bucketHead[die*(f.ppb+1)+int(v)]; b != noBlock; b = f.bNext[b] {
			switch {
			case free >= 2:
				return true
			case int(v) <= room:
				room -= int(v)
				free++
			case free > 0:
				room += f.ppb - int(v)
			default:
				return false // collect stops at a victim that does not fit
			}
		}
	}
	return free >= 2
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

// trimFlush applies a batched valid-count decrement to one block, moving it
// between buckets at most once.
func (f *ftl) trimFlush(blk uint32, delta uint16) {
	if blk == invalidPage || delta == 0 {
		return
	}
	die := f.dieOfBlock(blk)
	if f.inBucket[blk] {
		f.bucketDel(die, blk)
		f.valid[blk] -= delta
		f.bucketAdd(die, blk)
	} else {
		f.valid[blk] -= delta
	}
	f.dieVer[die]++
}

// freeBlocks returns the total free blocks across dies (for tests/stats).
func (f *ftl) freeBlocks() int {
	n := 0
	for d := range f.dies {
		n += len(f.dies[d].free)
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

// checkInvariants validates the mapping bidirectionality, valid counts, and
// bucket-list structure; used by property tests. It is O(pages) and
// changes nothing.
func (f *ftl) checkInvariants() error {
	validCount := make([]uint16, len(f.valid))
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
	for b, v := range validCount {
		if f.valid[b] != v {
			return fmt.Errorf("ftl: block %d valid count %d, recount %d", b, f.valid[b], v)
		}
		if v > 0 && f.writePtr[b] == 0 {
			return fmt.Errorf("ftl: block %d has valid pages but zero write pointer", b)
		}
	}
	if mapped != f.mappedPages {
		return fmt.Errorf("ftl: mappedPages %d, recount %d", f.mappedPages, mapped)
	}
	isFree, err := f.checkDies()
	if err != nil {
		return err
	}
	return f.checkBuckets(isFree)
}

// checkDies checks that each die accounts for all of its space: free
// blocks × pagesPerBlock + the unwritten slots of its host and GC open
// blocks + its written (valid or invalid) pages = blocksPerDie ×
// pagesPerBlock. A free block is erased, on its own die's list once, and
// neither open nor bucketed. It returns the free set, indexed by block.
func (f *ftl) checkDies() ([]bool, error) {
	isFree := make([]bool, len(f.valid))
	for d := range f.dies {
		ds := &f.dies[d]
		if ds.open == ds.gcOpen || f.dieOfBlock(ds.open) != d || f.dieOfBlock(ds.gcOpen) != d {
			return nil, fmt.Errorf("ftl: die %d open blocks %d and %d", d, ds.open, ds.gcOpen)
		}
		for _, b := range ds.free {
			switch {
			case f.dieOfBlock(b) != d:
				return nil, fmt.Errorf("ftl: block %d free on die %d", b, d)
			case isFree[b]:
				return nil, fmt.Errorf("ftl: block %d free twice", b)
			case b == ds.open || b == ds.gcOpen:
				return nil, fmt.Errorf("ftl: block %d both free and open", b)
			case f.inBucket[b]:
				return nil, fmt.Errorf("ftl: block %d both free and bucketed", b)
			case f.writePtr[b] != 0 || f.valid[b] != 0:
				return nil, fmt.Errorf("ftl: free block %d not erased (writePtr %d, valid %d)", b, f.writePtr[b], f.valid[b])
			}
			isFree[b] = true
		}
		pages := (len(ds.free)+2)*f.ppb - int(f.writePtr[ds.open]) - int(f.writePtr[ds.gcOpen])
		for b := d * f.blocksPerDie; b < (d+1)*f.blocksPerDie; b++ {
			pages += int(f.writePtr[b])
		}
		if want := f.blocksPerDie * f.ppb; pages != want {
			return nil, fmt.Errorf("ftl: die %d accounts for %d pages of %d", d, pages, want)
		}
	}
	return isFree, nil
}

// checkBuckets cross-checks bucket membership against valid[] and the
// closed-full-block predicate, verifies list linkage, the lazy minimum
// hints, and fast/slow victim agreement on every die.
func (f *ftl) checkBuckets(isFree []bool) error {
	seen := make([]bool, len(f.valid))
	for d := range f.dies {
		base := d * (f.ppb + 1)
		for v := 0; v <= f.ppb; v++ {
			prev := noBlock
			for b := f.bucketHead[base+v]; b != noBlock; b = f.bNext[b] {
				blk := uint32(b)
				if seen[b] {
					return fmt.Errorf("ftl: block %d linked into two buckets", b)
				}
				seen[b] = true
				if !f.inBucket[b] {
					return fmt.Errorf("ftl: block %d linked but not marked inBucket", b)
				}
				if int(f.valid[blk]) != v {
					return fmt.Errorf("ftl: block %d in bucket %d but valid %d", b, v, f.valid[blk])
				}
				if f.dieOfBlock(blk) != d {
					return fmt.Errorf("ftl: block %d bucketed on die %d", b, d)
				}
				if f.bPrev[b] != prev {
					return fmt.Errorf("ftl: block %d prev link %d, want %d", b, f.bPrev[b], prev)
				}
				prev = int32(b)
			}
			if v < int(f.minValid[d]) && f.bucketHead[base+v] != noBlock {
				return fmt.Errorf("ftl: die %d min hint %d above non-empty bucket %d", d, f.minValid[d], v)
			}
		}
	}
	for b := range f.valid {
		blk := uint32(b)
		ds := &f.dies[f.dieOfBlock(blk)]
		want := f.writePtr[b] == uint16(f.ppb) && blk != ds.open && blk != ds.gcOpen && !isFree[blk]
		if want != f.inBucket[b] {
			return fmt.Errorf("ftl: block %d bucket membership %v, want %v (writePtr %d, valid %d)",
				b, f.inBucket[b], want, f.writePtr[b], f.valid[b])
		}
		if f.inBucket[b] != seen[b] {
			return fmt.Errorf("ftl: block %d inBucket flag %v but linked %v", b, f.inBucket[b], seen[b])
		}
	}
	if f.victimOracle == nil {
		for d := range f.dies {
			// pickVictim advances the die's lazy minimum hint: put it back,
			// so that the audit leaves the FTL as it found it.
			hint := f.minValid[d]
			fastB, fastOK := f.pickVictim(d)
			f.minValid[d] = hint
			slowB, slowOK := f.pickVictimSlow(d)
			if fastB != slowB || fastOK != slowOK {
				return fmt.Errorf("ftl: die %d victim fast (%d,%v) != slow (%d,%v)",
					d, fastB, fastOK, slowB, slowOK)
			}
		}
	}
	return nil
}
