// Package tier implements a fast-tier device (CXL/Optane-like: low fixed
// latency, no garbage collection, byte-accounted capacity) interposed in
// front of a NAND SSD using the same device-wrapper pattern as the fault
// layer. The tier is a cache, not address space: Capacity() is the inner
// device's, and every IO is either absorbed at tier latency or forwarded.
//
// Policies (ROADMAP item 5):
//
//   - Reads: hit when every covered page is resident; promotion is
//     ghost-LRU/2Q — a page is installed only on its second miss within the
//     ghost window, so one-touch scans never pollute the tier.
//   - Writes: write-back for small IOs (≤ WriteBackMax) under a bounded
//     dirty set; write-around for large/sequential IOs. Dirty pages destage
//     in the background, coalesced into span writes through the inner
//     device's bulk path; a short linger lets hot overwrites be absorbed
//     (N overwrites of a page cost one NAND destage).
//   - Eviction: a clock over clean slots that never blocks the IO path —
//     admission pre-checks free+clean availability and falls back to
//     write-around instead of waiting.
//
// The hot path allocates nothing in steady state: residency probes go
// through an open-addressed page table (bufTable discipline), completions
// and destage spans come from freelists, and the eviction clock is a
// bounded scan.
package tier

import (
	"fmt"

	"gimbal/internal/sim"
	"gimbal/internal/ssd"
)

// Params describes a fast-tier device.
type Params struct {
	// FastBytes is the tier's capacity; FastBytes/PageSize slots.
	FastBytes int64
	// PageSize must match the inner device's logical page size.
	PageSize int

	// Timing (nanoseconds): fixed service latencies plus a shared
	// bandwidth timeline (no per-die geometry — the point of the fast
	// tier is that it has none).
	ReadLatency  int64
	WriteLatency int64
	Bps          int64 // tier bandwidth, bytes/sec

	// WriteBackMax is the largest write admitted write-back; larger
	// (large/sequential) writes go around the tier straight to NAND.
	WriteBackMax int
	// MaxDirtyFrac bounds the dirty set to this fraction of the slots;
	// writes that would exceed it go around instead of blocking.
	MaxDirtyFrac float64
	// DestagePages is the per-batch destage size (pages).
	DestagePages int
	// DestageDelay is the linger before a destage batch starts — the
	// window in which hot overwrites are absorbed. Under dirty-set
	// pressure (≥3/4 of the bound) or bypass the linger is skipped.
	DestageDelay int64
}

// DefaultParams returns an Optane-class parameter set for a tier of the
// given byte capacity.
func DefaultParams(fastBytes int64) Params {
	return Params{
		FastBytes:    fastBytes,
		PageSize:     4096,
		ReadLatency:  5_000,
		WriteLatency: 7_000,
		Bps:          6_000_000_000,
		WriteBackMax: 64 << 10,
		MaxDirtyFrac: 0.5,
		DestagePages: 64,
		DestageDelay: 2 * sim.Millisecond,
	}
}

// Validate checks internal consistency.
func (p Params) Validate() error {
	switch {
	case p.PageSize <= 0 || p.PageSize&(p.PageSize-1) != 0:
		return fmt.Errorf("tier: page size %d not a positive power of two", p.PageSize)
	case p.FastBytes < int64(p.PageSize):
		return fmt.Errorf("tier: capacity %d smaller than a page", p.FastBytes)
	case p.ReadLatency <= 0 || p.WriteLatency <= 0 || p.Bps <= 0:
		return fmt.Errorf("tier: non-positive timing")
	case p.WriteBackMax < p.PageSize:
		return fmt.Errorf("tier: WriteBackMax %d smaller than a page", p.WriteBackMax)
	case p.MaxDirtyFrac <= 0 || p.MaxDirtyFrac > 1:
		return fmt.Errorf("tier: MaxDirtyFrac %v outside (0,1]", p.MaxDirtyFrac)
	case p.DestagePages <= 0 || p.DestageDelay < 0:
		return fmt.Errorf("tier: bad destage config")
	}
	return nil
}

// SnapshotTag returns a stable non-zero hash of the tier configuration,
// used to key the inner device's FTL snapshot cache: a tiered and an
// untiered run of the same precondition must not share a cache entry.
func (p Params) SnapshotTag() uint64 {
	h := uint64(1469598103934665603) // FNV-1a
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	mix(uint64(p.FastBytes))
	mix(uint64(p.PageSize))
	mix(uint64(p.ReadLatency))
	mix(uint64(p.WriteLatency))
	mix(uint64(p.Bps))
	mix(uint64(p.WriteBackMax))
	mix(uint64(p.MaxDirtyFrac * 1e6))
	mix(uint64(p.DestagePages))
	mix(uint64(p.DestageDelay))
	if h == 0 {
		h = 1
	}
	return h
}

// Stats is a snapshot of tier counters.
type Stats struct {
	Hits         int64 // reads fully served from the tier
	Misses       int64 // reads forwarded to NAND
	HitBytes     int64
	WriteBacks   int64 // writes absorbed into the tier
	WriteArounds int64 // writes forwarded to NAND
	Absorbed     int64 // write-back pages that overwrote an already-dirty page
	Promotions   int64 // pages installed on a ghost hit
	Evictions    int64 // clean pages evicted by the clock
	Destages     int64 // destage span writes issued to NAND
	DestageBytes int64
	Resident     int // pages currently in the tier
	Dirty        int // pages currently dirty
}

// Slot states. A slot is evictable iff clean; dirty pages must destage
// first and destaging pages are owned by an in-flight NAND write.
const (
	slotFree uint8 = iota
	slotClean
	slotDirty
	slotDestaging
)

const ghostEmpty = ^uint32(0)

// completion is a recyclable tier-served completion (same discipline as
// the SSD's freelist).
type completion struct {
	t  *Device
	r  *ssd.Request
	fn func()
}

// destageOp is a recyclable destage span: one coalesced NAND write of
// consecutive dirty pages, with a once-built Done closure.
type destageOp struct {
	t     *Device
	first uint32
	n     int
	req   ssd.Request
	fn    func(*ssd.Request)
}

// Device is a fast tier in front of an inner device. All methods must be
// called in scheduler context.
type Device struct {
	inner ssd.Device
	clk   sim.Scheduler
	p     Params

	nslots     int
	maxDirty   int
	table      pageTable // logical page -> slot+1
	slotPage   []uint32
	slotState  []uint8
	slotRef    []bool
	freeSlots  []uint32
	cleanCount int
	dirtyCount int
	hand       int
	busy       int64 // tier bandwidth timeline (busy-until)

	// Ghost 2Q: recently-missed pages in a FIFO ring; a read miss that
	// hits the ghost promotes.
	ghostTab  pageTable // page -> ring index+1
	ghostRing []uint32
	ghostPos  int

	// Destage: FIFO of dirty-page hints (validated against the table at
	// pop, so invalidation and re-dirtying never need to search it).
	dirtyQ     []uint32
	dirtyHead  int
	destageOut int // outstanding destage span writes
	destageEv  sim.Timer
	destageFn  func()
	batch      []uint32 // per-batch scratch
	destFree   []*destageOp
	compFree   []*completion

	// bypass freezes admission and promotion (tier fault injection);
	// dirty pages still serve hits and drain eagerly.
	bypass bool

	// Cost-model window: write-back vs write-around bytes since the last
	// WriteCostModel poll, folded into an EWMA absorb fraction.
	wbBytes   int64
	waBytes   int64
	absorb    float64
	absorbSet bool
	nand      *ssd.SSD // unwrapped NAND (GC-pressure probe); may be nil

	stats Stats
}

// New interposes a fast tier in front of inner. Panics on invalid params
// (parameter sets are code, not input).
func New(clk sim.Scheduler, inner ssd.Device, p Params) *Device {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	n := int(p.FastBytes / int64(p.PageSize))
	t := &Device{
		inner:     inner,
		clk:       clk,
		p:         p,
		nslots:    n,
		maxDirty:  int(p.MaxDirtyFrac * float64(n)),
		slotPage:  make([]uint32, n),
		slotState: make([]uint8, n),
		slotRef:   make([]bool, n),
		freeSlots: make([]uint32, n),
		ghostRing: make([]uint32, n),
	}
	if t.maxDirty < 1 {
		t.maxDirty = 1
	}
	t.table.initFor(n)
	t.ghostTab.initFor(n)
	for i := 0; i < n; i++ {
		t.freeSlots[i] = uint32(n - 1 - i) // pop ascending
		t.ghostRing[i] = ghostEmpty
	}
	t.destageFn = func() { t.startBatch() }
	// The NAND model under the inner chain (fault wrappers etc.) is the
	// one whose GC pressure feeds the cost model.
	t.nand, _ = ssd.Find[*ssd.SSD](inner)
	return t
}

// Inner returns the wrapped device.
func (t *Device) Inner() ssd.Device { return t.inner }

// Params returns the tier parameters.
func (t *Device) Params() Params { return t.p }

// Capacity implements ssd.Device: the tier is a cache, the address space
// is the inner device's.
func (t *Device) Capacity() int64 { return t.inner.Capacity() }

// Stats returns a snapshot of the tier counters.
func (t *Device) Stats() Stats {
	st := t.stats
	st.Resident = t.table.used
	st.Dirty = t.dirtyCount
	return st
}

// SetBypass engages or clears tier bypass (fault injection: the fast tier
// browns out or is administratively drained). While bypassed the tier
// admits and promotes nothing; reads covering dirty pages still hit (the
// tier holds the only current copy) and the dirty set destages eagerly.
func (t *Device) SetBypass(active bool) {
	t.bypass = active
	if active {
		t.kickDestage()
	}
}

// Bypassed reports whether bypass is engaged.
func (t *Device) Bypassed() bool { return t.bypass }

// Submit implements ssd.Device.
func (t *Device) Submit(r *ssd.Request) {
	r.FastTier = false
	switch r.Kind {
	case ssd.OpRead:
		if t.aligned(r) {
			t.submitRead(r)
			return
		}
	case ssd.OpWrite:
		if t.aligned(r) {
			t.submitWrite(r)
			return
		}
	case ssd.OpTrim:
		if t.aligned(r) {
			first := uint32(r.Offset / int64(t.p.PageSize))
			t.invalidateRange(first, uint32(r.Size/t.p.PageSize))
		}
	case ssd.OpFlush:
		// Flush semantics: everything acknowledged must be durable on
		// NAND, so force the dirty set out ahead of the inner flush —
		// the flush then completes behind those programs.
		t.forceDestageAll()
	}
	t.inner.Submit(r)
}

// aligned reports whether the request is page-granular (the NVMe layer
// guarantees it; raw users that are not get forwarded uncached).
func (t *Device) aligned(r *ssd.Request) bool {
	ps := int64(t.p.PageSize)
	return r.Size > 0 && r.Offset%ps == 0 && int64(r.Size)%ps == 0
}

// submitRead serves the read from the tier when every covered page is
// resident; otherwise it records ghost hits (second-miss promotion) and
// forwards.
func (t *Device) submitRead(r *ssd.Request) {
	first := uint32(r.Offset / int64(t.p.PageSize))
	pages := uint32(r.Size / t.p.PageSize)
	resident := uint32(0)
	dirtyCovered := false
	for i := uint32(0); i < pages; i++ {
		v := t.table.get(first + i)
		if v == 0 {
			continue
		}
		resident++
		t.slotRef[v-1] = true
		if st := t.slotState[v-1]; st == slotDirty || st == slotDestaging {
			dirtyCovered = true
		}
	}
	if resident == pages {
		if t.bypass && !dirtyCovered {
			// Bypassed and NAND holds current data: forward.
			t.inner.Submit(r)
			return
		}
		t.stats.Hits++
		t.stats.HitBytes += int64(r.Size)
		t.completeFast(r, t.p.ReadLatency)
		return
	}
	t.stats.Misses++
	if !t.bypass {
		for i := uint32(0); i < pages; i++ {
			page := first + i
			if t.table.get(page) != 0 {
				continue
			}
			if t.ghostTab.get(page) != 0 {
				// Second miss inside the ghost window: promote if a slot
				// is free or evictable; never wait for one.
				if len(t.freeSlots) > 0 || t.cleanCount > 0 {
					t.ghostDel(page)
					slot := t.allocSlot()
					t.install(slot, page, slotClean)
					t.cleanCount++
					t.stats.Promotions++
				}
				continue
			}
			t.ghostAdd(page)
		}
	}
	t.inner.Submit(r)
}

// submitWrite applies the admission policy: write-back when the IO is
// small and the dirty/slot budgets allow, write-around otherwise.
func (t *Device) submitWrite(r *ssd.Request) {
	first := uint32(r.Offset / int64(t.p.PageSize))
	pages := uint32(r.Size / t.p.PageSize)
	admit := !t.bypass && r.Size <= t.p.WriteBackMax
	if admit {
		need, newlyDirty := 0, 0
		for i := uint32(0); i < pages; i++ {
			v := t.table.get(first + i)
			if v == 0 {
				need++
				newlyDirty++
			} else if t.slotState[v-1] != slotDirty {
				newlyDirty++
			}
		}
		if need > len(t.freeSlots)+t.cleanCount || t.dirtyCount+newlyDirty > t.maxDirty {
			admit = false
		}
	}
	if !admit {
		t.invalidateRange(first, pages)
		t.waBytes += int64(r.Size)
		t.stats.WriteArounds++
		t.inner.Submit(r)
		return
	}
	for i := uint32(0); i < pages; i++ {
		page := first + i
		if v := t.table.get(page); v != 0 {
			slot := v - 1
			t.slotRef[slot] = true
			switch t.slotState[slot] {
			case slotClean:
				t.cleanCount--
				t.slotState[slot] = slotDirty
				t.dirtyCount++
				t.dirtyQ = append(t.dirtyQ, page)
			case slotDestaging:
				// Re-dirtied under an in-flight destage: the completion
				// will see the dirty state and leave it dirty.
				t.slotState[slot] = slotDirty
				t.dirtyCount++
				t.dirtyQ = append(t.dirtyQ, page)
			default: // already dirty: overwrite absorbed, hint still queued
				t.stats.Absorbed++
			}
			continue
		}
		t.ghostDel(page)
		slot := t.allocSlot()
		t.install(slot, page, slotDirty)
		t.dirtyCount++
		t.dirtyQ = append(t.dirtyQ, page)
	}
	t.wbBytes += int64(r.Size)
	t.stats.WriteBacks++
	t.completeFast(r, t.p.WriteLatency)
	t.kickDestage()
}

// completeFast acknowledges a tier-served request: fixed latency plus FIFO
// occupancy on the tier's bandwidth timeline, stamped FastTier for span
// attribution, via the completion freelist.
func (t *Device) completeFast(r *ssd.Request, latency int64) {
	now := t.clk.Now()
	r.SubmitTime = now
	r.GCWait = 0
	r.FastTier = true
	_, end := reserve(&t.busy, now, t.xferTime(r.Size))
	var c *completion
	if n := len(t.compFree); n > 0 {
		c = t.compFree[n-1]
		t.compFree = t.compFree[:n-1]
	} else {
		c = &completion{t: t}
		c.fn = func() { c.t.finish(c) }
	}
	c.r = r
	t.clk.At(end+latency, c.fn)
}

func (t *Device) finish(c *completion) {
	r := c.r
	c.r = nil
	t.compFree = append(t.compFree, c)
	r.CompleteTime = t.clk.Now()
	r.Done(r)
}

// install binds a page to a slot.
func (t *Device) install(slot, page uint32, state uint8) {
	t.slotPage[slot] = page
	t.slotState[slot] = state
	t.slotRef[slot] = true
	t.table.put(page, slot+1)
}

// allocSlot returns a free slot, evicting a clean page by clock if needed.
// The caller guarantees len(freeSlots)+cleanCount > 0, so the scan is
// bounded: the first pass clears ref bits, the second must find a victim.
func (t *Device) allocSlot() uint32 {
	if n := len(t.freeSlots); n > 0 {
		s := t.freeSlots[n-1]
		t.freeSlots = t.freeSlots[:n-1]
		return s
	}
	for scanned := 0; scanned <= 2*t.nslots; scanned++ {
		s := t.hand
		t.hand++
		if t.hand == t.nslots {
			t.hand = 0
		}
		if t.slotState[s] != slotClean {
			continue
		}
		if t.slotRef[s] {
			t.slotRef[s] = false
			continue
		}
		t.table.del(t.slotPage[s])
		t.ghostAdd(t.slotPage[s])
		t.slotState[s] = slotFree
		t.cleanCount--
		t.stats.Evictions++
		return uint32(s)
	}
	panic("tier: allocSlot with no free or clean slot")
}

// invalidateRange drops any resident pages in [first, first+n): NAND is
// about to hold (or stop holding) the current data, so the tier copies are
// stale. For huge spans (bulk trims) it scans the slots instead of the
// range.
func (t *Device) invalidateRange(first, n uint32) {
	if t.table.used == 0 {
		return
	}
	if int(n) > 4*t.nslots {
		for s := 0; s < t.nslots; s++ {
			if t.slotState[s] == slotFree {
				continue
			}
			if p := t.slotPage[s]; p >= first && p-first < n {
				t.dropSlot(uint32(s))
			}
		}
		return
	}
	for i := uint32(0); i < n; i++ {
		if v := t.table.get(first + i); v != 0 {
			t.dropSlot(v - 1)
		}
	}
}

// dropSlot frees a bound slot regardless of state. A destaging slot's
// in-flight completion finds the table unmapped and does nothing.
func (t *Device) dropSlot(slot uint32) {
	switch t.slotState[slot] {
	case slotClean:
		t.cleanCount--
	case slotDirty:
		t.dirtyCount--
	}
	t.table.del(t.slotPage[slot])
	t.slotState[slot] = slotFree
	t.freeSlots = append(t.freeSlots, slot)
}

// Ghost ring: a FIFO of recently-missed pages, capacity = slot count.

func (t *Device) ghostAdd(page uint32) {
	if t.ghostTab.get(page) != 0 {
		return
	}
	if old := t.ghostRing[t.ghostPos]; old != ghostEmpty {
		t.ghostTab.del(old)
	}
	t.ghostRing[t.ghostPos] = page
	t.ghostTab.put(page, uint32(t.ghostPos)+1)
	t.ghostPos++
	if t.ghostPos == len(t.ghostRing) {
		t.ghostPos = 0
	}
}

func (t *Device) ghostDel(page uint32) {
	if v := t.ghostTab.get(page); v != 0 {
		t.ghostRing[v-1] = ghostEmpty
		t.ghostTab.del(page)
	}
}

// kickDestage arranges for the dirty set to drain: immediately under
// pressure or bypass, after the coalescing linger otherwise. One batch is
// in flight at a time; its completion re-pumps.
func (t *Device) kickDestage() {
	if t.destageOut > 0 || t.dirtyCount == 0 {
		return
	}
	if t.bypass || t.dirtyCount*4 >= t.maxDirty*3 || t.p.DestageDelay == 0 {
		t.startBatch()
		return
	}
	if t.destageEv.Cancelled() {
		t.destageEv = t.clk.After(t.p.DestageDelay, t.destageFn)
	}
}

// startBatch pops up to DestagePages valid dirty hints, coalesces
// consecutive pages into span writes, and submits them to the inner
// device. Stale hints (invalidated, already destaged, or duplicated by a
// re-dirty) are skipped; every dirty page has at least one live hint, so
// dirtyCount > 0 guarantees progress.
func (t *Device) startBatch() {
	if t.destageOut > 0 || t.dirtyCount == 0 {
		return
	}
	t.batch = t.batch[:0]
	for len(t.batch) < t.p.DestagePages && t.dirtyHead < len(t.dirtyQ) {
		page := t.dirtyQ[t.dirtyHead]
		t.dirtyHead++
		v := t.table.get(page)
		if v == 0 || t.slotState[v-1] != slotDirty {
			continue
		}
		t.slotState[v-1] = slotDestaging
		t.dirtyCount--
		t.batch = append(t.batch, page)
	}
	if t.dirtyHead == len(t.dirtyQ) {
		t.dirtyQ = t.dirtyQ[:0]
		t.dirtyHead = 0
	}
	if len(t.batch) == 0 {
		return
	}
	t.submitBatch()
}

// forceDestageAll pushes every dirty page out now (flush path): batches of
// spans are submitted back to back with no linger and no batch cap.
func (t *Device) forceDestageAll() {
	t.batch = t.batch[:0]
	for t.dirtyHead < len(t.dirtyQ) {
		page := t.dirtyQ[t.dirtyHead]
		t.dirtyHead++
		v := t.table.get(page)
		if v == 0 || t.slotState[v-1] != slotDirty {
			continue
		}
		t.slotState[v-1] = slotDestaging
		t.dirtyCount--
		t.batch = append(t.batch, page)
	}
	t.dirtyQ = t.dirtyQ[:0]
	t.dirtyHead = 0
	if len(t.batch) > 0 {
		t.submitBatch()
	}
}

// submitBatch sorts the collected pages (insertion sort on the bounded
// scratch) and emits one inner write per run of consecutive pages.
func (t *Device) submitBatch() {
	b := t.batch
	for i := 1; i < len(b); i++ {
		for j := i; j > 0 && b[j] < b[j-1]; j-- {
			b[j], b[j-1] = b[j-1], b[j]
		}
	}
	i := 0
	for i < len(b) {
		j := i + 1
		for j < len(b) && b[j] == b[j-1]+1 {
			j++
		}
		t.submitSpan(b[i], j-i)
		i = j
	}
}

// submitSpan issues one coalesced destage write, charging the span's read
// from tier media to the tier bandwidth timeline.
func (t *Device) submitSpan(first uint32, n int) {
	var op *destageOp
	if k := len(t.destFree); k > 0 {
		op = t.destFree[k-1]
		t.destFree = t.destFree[:k-1]
	} else {
		op = &destageOp{t: t}
		op.fn = func(r *ssd.Request) { op.t.onDestageDone(op) }
	}
	op.first = first
	op.n = n
	size := n * t.p.PageSize
	op.req = ssd.Request{
		Kind:   ssd.OpWrite,
		Offset: int64(first) * int64(t.p.PageSize),
		Size:   size,
		Done:   op.fn,
	}
	reserve(&t.busy, t.clk.Now(), t.xferTime(size))
	t.destageOut++
	t.stats.Destages++
	t.stats.DestageBytes += int64(size)
	t.inner.Submit(&op.req)
}

// onDestageDone marks the span's pages clean — unless a page was
// re-dirtied (state dirty again) or invalidated (table unmapped) while the
// write was in flight — recycles the op, and re-pumps.
func (t *Device) onDestageDone(op *destageOp) {
	for k := 0; k < op.n; k++ {
		page := op.first + uint32(k)
		v := t.table.get(page)
		if v == 0 {
			continue
		}
		if t.slotState[v-1] == slotDestaging {
			t.slotState[v-1] = slotClean
			t.cleanCount++
		}
	}
	t.destFree = append(t.destFree, op)
	t.destageOut--
	if t.destageOut == 0 {
		t.kickDestage()
	}
}

// WriteCostModel reports where host writes are landing: absorb is the
// EWMA fraction of write bytes absorbed by the tier since the previous
// poll, nandWA the inner NAND's current cumulative write amplification.
// The core switch polls this each cost period to blend the fast tier's
// unit write cost with the NAND estimator (writecost.SetTierMix). Windows
// with no writes keep the previous absorb (a read-only period says
// nothing about where writes land).
func (t *Device) WriteCostModel() (absorb, nandWA float64) {
	if total := t.wbBytes + t.waBytes; total > 0 {
		f := float64(t.wbBytes) / float64(total)
		if !t.absorbSet {
			t.absorb = f
			t.absorbSet = true
		} else {
			t.absorb = 0.5*t.absorb + 0.5*f
		}
		t.wbBytes, t.waBytes = 0, 0
	}
	wa := 1.0
	if t.nand != nil {
		wa = t.nand.WriteAmplification()
	}
	return t.absorb, wa
}

func (t *Device) xferTime(n int) int64 {
	return int64(n) * 1e9 / t.p.Bps
}

// reserve takes FIFO occupancy on a timeline resource (same helper as the
// SSD model).
func reserve(busy *int64, earliest, dur int64) (start, end int64) {
	start = earliest
	if *busy > start {
		start = *busy
	}
	end = start + dur
	*busy = end
	return start, end
}
