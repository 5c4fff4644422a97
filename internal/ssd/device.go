package ssd

import (
	"fmt"

	"gimbal/internal/sim"
)

// OpKind distinguishes request types.
type OpKind uint8

// Request operations.
const (
	OpRead OpKind = iota
	OpWrite
	OpFlush
	OpTrim
)

// String returns the NVMe-style opcode name.
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpFlush:
		return "flush"
	case OpTrim:
		return "trim"
	default:
		return fmt.Sprintf("op(%d)", uint8(k))
	}
}

// Request is one block IO against a device. Offset and Size must be
// page-aligned multiples (the NVMe layer enforces this). Done is invoked
// exactly once, in simulation context, when the IO completes; SubmitTime
// and CompleteTime are then filled in.
type Request struct {
	Kind   OpKind
	Offset int64
	Size   int
	Done   func(*Request)

	SubmitTime   int64
	CompleteTime int64

	// MediaErr marks the request as failed by the device (fault
	// injection); timing fields are still populated.
	MediaErr bool

	// GCWait is the portion of the request's latency attributed to
	// garbage collection, filled in alongside CompleteTime. For writes it
	// is the buffer-admission wait (the buffer only backs up when
	// programs stall behind GC fences); for reads it is the time the
	// first NAND operation waited behind a GC suspend slice on its die —
	// a lower-bound attribution, since the slice and the read share one
	// FIFO timeline.
	GCWait int64

	// FastTier marks a request served by an interposed fast-tier device
	// (internal/tier) rather than NAND; the perf ledger's device seam times
	// those reads apart.
	FastTier bool

	// Tag is opaque to the device; upper layers use it to route
	// completions (tenant, qpair, command id).
	Tag any

	// bufWaitSince stamps when a write entered the buffer-full wait
	// queue (0 = never queued); admission converts it into GCWait.
	bufWaitSince int64
}

// Latency returns the device-observed service time of a completed request.
func (r *Request) Latency() int64 { return r.CompleteTime - r.SubmitTime }

// Device is the block device abstraction the NVMe layer drives.
type Device interface {
	// Submit queues one request. The device invokes r.Done on completion.
	Submit(r *Request)
	// Capacity returns the usable byte capacity.
	Capacity() int64
}

// Find returns the outermost layer of dev's wrapper chain that is a T,
// unwrapping layers that expose Inner (the fault wrapper, the fast tier).
// Find[*SSD] reaches the NAND model under any stack.
func Find[T any](dev Device) (T, bool) {
	for {
		if t, ok := dev.(T); ok {
			return t, true
		}
		u, ok := dev.(interface{ Inner() Device })
		if !ok {
			var zero T
			return zero, false
		}
		dev = u.Inner()
	}
}

// Stats is a snapshot of device counters.
type Stats struct {
	ReadBytes     int64
	WriteBytes    int64
	ReadOps       int64
	WriteOps      int64
	FlushBatches  int64 // write-buffer batches programmed to NAND
	FlushedBytes  int64
	GCInvocations int64 // program batches that triggered garbage collection
	GCMovedPages  uint64
	Erases        uint64
	WriteAmp      float64
	FreeBlocks    int
	BufOccupancy  int64
	QueuedHost    int // host commands waiting for an internal slot
}

// completion is a recyclable completion event: the callback closure is
// built once per node and rebound to a request by assignment, so the
// completion of every read, write ack, flush, and trim schedules with zero
// allocations in steady state.
type completion struct {
	s  *SSD
	r  *Request
	fn func()
}

// progOp is a recyclable NAND program batch: the staged logical pages are
// copied into a reusable array (capacity ProgramPages) and the completion
// callback is a once-built closure, so the flush pipeline neither copies
// into fresh slices nor closes over per-batch state.
type progOp struct {
	s     *SSD
	pages []uint32
	bytes int
	fn    func()
}

// readRow is one NAND row touched by a read (scratch for startRead).
type readRow struct {
	die   int
	id    uint32
	count int
}

// SSD is the simulated NVMe SSD. All methods must be called in scheduler
// context (event callbacks or cooperative processes for the virtual clock;
// holding the RealScheduler lock for the wall clock).
type SSD struct {
	p     Params
	sched sim.Scheduler
	ftl   *ftl

	dieBusy  []int64 // per-die timeline: busy until
	chanBusy []int64 // per-channel timeline

	// gcFence is the per-die time before which no program op may start:
	// garbage-collection work serializes ahead of host writes here, so
	// write throughput pays the full write-amplification cost. Reads are
	// charged only a bounded GCSlice per batch on the shared timeline,
	// modeling the read-suspend capability of real dies — without it a
	// single victim reclamation would block co-located reads for tens of
	// milliseconds.
	gcFence []int64

	// gcSliceUntil is the per-die end of the most recent GC suspend
	// slice reserved on the shared die timeline; reads compare their
	// start against it to attribute GC-induced wait (Request.GCWait).
	gcSliceUntil []int64

	// progBusy is the per-die program pipeline: program ops (and the GC
	// fence) serialize here at full duration, while reads on the shared
	// dieBusy timeline are charged only ProgramReadSlice per program
	// (program-suspend).
	progBusy []int64

	// lastRow caches the NAND row most recently read into each die's page
	// register: a consecutive read of the same row skips the array read
	// and pays only the channel transfer, which is what makes small
	// sequential reads fast on real flash.
	lastRow []uint32

	// Write buffer state. Admitted write bytes occupy the buffer until
	// their program ops complete. buf tracks logical page -> pending
	// program ops (open-addressed, allocation-free in steady state).
	bufOccupancy int64
	buf          bufTable
	flushDie     int   // round-robin die cursor for flush allocation
	lastFlushEnd int64 // completion time of the most recent program op

	// Flush staging: buffered pages awaiting NAND programming, consumed
	// from flushHead so draining never reallocates. Pages are programmed
	// in full multi-plane batches; a linger timer flushes stragglers so
	// the buffer always drains. Coalescing buffered pages from different
	// host commands into one program op is what gives small buffered
	// writes their sustained bandwidth.
	flushPending []uint32
	flushHead    int
	lingerEv     sim.Timer
	lingerFn     func() // cached forced-flush callback (no per-arm closure)

	// Host command admission: at most InternalQD requests are in service;
	// excess arrivals wait in FIFO order (consumed from waitHead).
	inService int
	waitQ     []*Request
	waitHead  int

	// Writes admitted to the command stream but blocked on buffer space.
	bufWaitQ    []*Request
	bufWaitHead int

	// Freelists and scratch recycled by the hot paths.
	compFree []*completion
	progFree []*progOp
	readRows []readRow

	stats Stats

	// snapTag extends the precondition snapshot cache key with the owning
	// stack's configuration (SetSnapshotTag); 0 = plain untiered device.
	snapTag uint64
}

// New builds an SSD from params. It panics on invalid params (programmer
// error: parameter sets are code, not input).
func New(sched sim.Scheduler, p Params) *SSD {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	s := &SSD{
		p:            p,
		sched:        sched,
		ftl:          newFTL(p),
		dieBusy:      make([]int64, p.Dies()),
		chanBusy:     make([]int64, p.Channels),
		gcFence:      make([]int64, p.Dies()),
		gcSliceUntil: make([]int64, p.Dies()),
		progBusy:     make([]int64, p.Dies()),
		lastRow:      newRowCache(p.Dies()),
	}
	s.buf.init(bufTableMinSize)
	s.lingerFn = func() { s.pumpFlush(true) }
	return s
}

// SetSnapshotTag namespaces this device's precondition snapshot cache
// entries: stacks that wrap the device (a fast tier, say) set a tag derived
// from their configuration so their preconditioned state never collides
// with an untiered device of identical Params. Must be called before
// Precondition.
func (s *SSD) SetSnapshotTag(tag uint64) { s.snapTag = tag }

// SnapshotTag returns the tag set by SetSnapshotTag (0 = untagged).
func (s *SSD) SnapshotTag() uint64 { return s.snapTag }

// Capacity implements Device.
func (s *SSD) Capacity() int64 { return s.p.UsableBytes }

// Stats returns a snapshot of the device counters.
func (s *SSD) Stats() Stats {
	st := s.stats
	st.GCMovedPages = s.ftl.gcMoved
	st.Erases = s.ftl.gcErases
	st.WriteAmp = s.ftl.writeAmplification()
	st.FreeBlocks = s.ftl.freeBlocks()
	st.BufOccupancy = s.bufOccupancy
	st.QueuedHost = len(s.waitQ) - s.waitHead
	return st
}

// Submit implements Device.
func (s *SSD) Submit(r *Request) {
	if r.Done == nil {
		panic("ssd: Submit with nil Done")
	}
	if err := s.checkBounds(r); err != nil {
		panic(err)
	}
	r.SubmitTime = s.sched.Now()
	r.GCWait, r.bufWaitSince = 0, 0
	if s.inService >= s.p.InternalQD {
		s.waitQ = append(s.waitQ, r)
		return
	}
	s.start(r)
}

func (s *SSD) checkBounds(r *Request) error {
	ps := int64(s.p.PageSize)
	switch r.Kind {
	case OpRead, OpWrite, OpTrim:
		if r.Size <= 0 || r.Offset < 0 || r.Offset+int64(r.Size) > s.p.UsableBytes {
			return fmt.Errorf("ssd: %s out of bounds: off=%d size=%d cap=%d", r.Kind, r.Offset, r.Size, s.p.UsableBytes)
		}
		if r.Offset%ps != 0 || int64(r.Size)%ps != 0 {
			return fmt.Errorf("ssd: %s not page aligned: off=%d size=%d", r.Kind, r.Offset, r.Size)
		}
	case OpFlush:
	default:
		return fmt.Errorf("ssd: unknown op %d", r.Kind)
	}
	return nil
}

func (s *SSD) start(r *Request) {
	s.inService++
	switch r.Kind {
	case OpRead:
		s.startRead(r)
	case OpWrite:
		s.startWrite(r)
	case OpFlush:
		s.pumpFlush(true)
		s.completeAt(r, max64(s.lastFlushEnd, s.sched.Now()+s.p.CmdOverhead))
	case OpTrim:
		first := uint32(r.Offset / int64(s.p.PageSize))
		count := uint32(r.Size / s.p.PageSize)
		s.ftl.trim(first, count)
		s.pumpFlush(false) // the freed pages may let a die take what is staged
		s.completeAt(r, s.sched.Now()+s.p.CmdOverhead)
	}
}

// completeAt schedules the request's completion and the follow-on admission
// of a queued command, reusing a completion node from the freelist.
func (s *SSD) completeAt(r *Request, t int64) {
	var c *completion
	if n := len(s.compFree); n > 0 {
		c = s.compFree[n-1]
		s.compFree = s.compFree[:n-1]
	} else {
		c = &completion{s: s}
		c.fn = func() { c.s.finish(c) }
	}
	c.r = r
	s.sched.At(t, c.fn)
}

// finish runs a scheduled completion: stamp the request, free the internal
// slot, admit the next queued command, recycle the node, and only then hand
// the request back to its owner.
func (s *SSD) finish(c *completion) {
	r := c.r
	c.r = nil
	s.compFree = append(s.compFree, c)
	r.CompleteTime = s.sched.Now()
	s.inService--
	if s.waitHead < len(s.waitQ) {
		next := s.waitQ[s.waitHead]
		s.waitQ[s.waitHead] = nil
		s.waitHead++
		if s.waitHead == len(s.waitQ) {
			s.waitQ = s.waitQ[:0]
			s.waitHead = 0
		}
		s.start(next)
	}
	r.Done(r)
}

// newRowCache builds a register cache with no row latched.
func newRowCache(n int) []uint32 {
	rows := make([]uint32, n)
	for i := range rows {
		rows[i] = ^uint32(0) >> 1 // matches no real or pseudo row id
	}
	return rows
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// gcSlice returns the configured GC charge bound (with a sane default for
// parameter sets that predate the field).
func (s *SSD) gcSlice() int64 {
	if s.p.GCSlice > 0 {
		return s.p.GCSlice
	}
	return 1_500_000
}

// reserve takes FIFO occupancy on a timeline resource: the operation starts
// when the resource frees, runs for dur, and the new busy-until is
// returned along with the start time.
func reserve(busy *int64, earliest, dur int64) (start, end int64) {
	start = earliest
	if *busy > start {
		start = *busy
	}
	end = start + dur
	*busy = end
	return start, end
}

// addReadRow accumulates a page into the per-SSD row scratch, coalescing
// pages that share a NAND row.
func (s *SSD) addReadRow(rowID uint32, die int) {
	rows := s.readRows
	for i := range rows {
		if rows[i].id == rowID {
			rows[i].count++
			return
		}
	}
	s.readRows = append(rows, readRow{die: die, id: rowID, count: 1})
}

// startRead decomposes a read into NAND operations. Logical pages that live
// in the same NAND row (the multi-plane page a program batch wrote) are
// served by a single array read — the register holds the whole row — so
// sequentially written data reads back with high parallelism while random
// 4KB reads pay one tR each. Each row then transfers its pages over the
// die's channel. The request completes when its last page lands; pages
// resident in the write buffer are served at buffer latency. Row grouping
// uses per-SSD scratch, so the whole path allocates nothing.
func (s *SSD) startRead(r *Request) {
	now := s.sched.Now() + s.p.CmdOverhead
	first := uint32(r.Offset / int64(s.p.PageSize))
	pages := uint32(r.Size / s.p.PageSize)
	var latest int64 = now + s.p.BufReadLatency

	s.readRows = s.readRows[:0]
	for i := uint32(0); i < pages; i++ {
		logical := first + i
		if s.buf.get(logical) > 0 {
			continue // buffer hit: covered by the floor latency above
		}
		phys := s.ftl.lookup(logical)
		if phys == invalidPage {
			// Unmapped page: deterministic pseudo-placement, own row.
			h := uint64(logical) * 0x9e3779b97f4a7c15
			die := int(h % uint64(s.p.Dies()))
			s.addReadRow(^logical, die)
			continue
		}
		s.addReadRow(phys/uint32(s.p.ProgramPages), s.ftl.dieOfPhys(phys))
	}
	var gcWait int64
	for _, rw := range s.readRows {
		ch := s.ftl.channelOfDie(rw.die)
		var dieStart, dieEnd int64
		if s.lastRow[rw.die] == rw.id {
			// Register hit: the row is already latched; only transfer.
			dieEnd = max64(now, s.dieBusy[rw.die])
			dieStart = dieEnd
		} else {
			dieStart, dieEnd = reserve(&s.dieBusy[rw.die], now, s.p.ReadLatency)
			s.lastRow[rw.die] = rw.id
		}
		// GC attribution: the wait up to the end of the die's most recent
		// GC suspend slice was GC-induced (the remainder is ordinary die
		// contention). The request reports its worst row.
		if until := s.gcSliceUntil[rw.die]; until > now {
			if w := min64(dieStart, until) - now; w > gcWait {
				gcWait = w
			}
		}
		_, xferEnd := reserve(&s.chanBusy[ch], dieEnd, s.p.XferTime(rw.count*s.p.PageSize))
		if xferEnd > latest {
			latest = xferEnd
		}
	}
	r.GCWait = gcWait
	s.stats.ReadBytes += int64(r.Size)
	s.stats.ReadOps++
	s.completeAt(r, latest)
}

// startWrite admits the write into the DRAM buffer (waiting for space if
// full), acknowledges it at buffer latency, and eagerly schedules the NAND
// program work.
func (s *SSD) startWrite(r *Request) {
	if s.bufOccupancy+int64(r.Size) > s.p.WriteBufBytes {
		r.bufWaitSince = s.sched.Now()
		s.bufWaitQ = append(s.bufWaitQ, r)
		return
	}
	s.admitWrite(r)
}

func (s *SSD) admitWrite(r *Request) {
	now := s.sched.Now()
	if r.bufWaitSince != 0 {
		r.GCWait = now - r.bufWaitSince
		r.bufWaitSince = 0
	}
	s.bufOccupancy += int64(r.Size)
	s.stats.WriteBytes += int64(r.Size)
	s.stats.WriteOps++

	first := uint32(r.Offset / int64(s.p.PageSize))
	pages := r.Size / s.p.PageSize
	for i := 0; i < pages; i++ {
		logical := first + uint32(i)
		s.buf.inc(logical)
		s.flushPending = append(s.flushPending, logical)
	}
	s.pumpFlush(false)
	// The host sees the buffered-write acknowledgment.
	s.completeAt(r, now+s.p.CmdOverhead+s.p.BufWriteLatency)
}

// flushLinger bounds how long a partial program batch may wait for
// coalescing partners before being programmed anyway.
const flushLinger = 60 * sim.Microsecond

// pumpFlush issues full program batches from the staging queue; with force
// it also drains a trailing partial batch. A linger timer guarantees
// stragglers are flushed even if no further writes arrive. The staging
// slice is consumed from flushHead and compacted afterwards (the live tail
// is always shorter than one batch), so sustained flushing reuses one
// backing array. When no die can take a batch, the pages stay staged and
// keep their buffer space, so host writes wait for it: the next write
// admission, flush or trim pumps again. No linger is armed for them: with
// nothing programmed, only a trim changes what a die can take.
func (s *SSD) pumpFlush(force bool) {
	pp := s.p.ProgramPages
	for len(s.flushPending)-s.flushHead >= pp {
		if !s.programBatch(s.flushPending[s.flushHead : s.flushHead+pp]) {
			s.compactFlush()
			return
		}
		s.flushHead += pp
	}
	if s.flushHead == len(s.flushPending) {
		s.flushPending = s.flushPending[:0]
		s.flushHead = 0
		return
	}
	if force {
		if s.programBatch(s.flushPending[s.flushHead:]) {
			s.flushPending = s.flushPending[:0]
			s.flushHead = 0
		}
		s.compactFlush()
		return
	}
	s.compactFlush()
	if s.lingerEv.Cancelled() {
		s.lingerEv = s.sched.After(flushLinger, s.lingerFn)
	}
}

// compactFlush moves the staged tail to the front of flushPending.
func (s *SSD) compactFlush() {
	if s.flushHead > 0 {
		n := copy(s.flushPending, s.flushPending[s.flushHead:])
		s.flushPending = s.flushPending[:n]
		s.flushHead = 0
	}
}

// programBatch maps the batch's logical pages onto the next die and
// reserves the channel transfer plus program time, charging any GC work the
// allocation triggered to the same die first (GC blocks the die before the
// program can proceed — the mechanism behind fragmented-SSD collapse).
// Batch state lives in a recycled progOp, so steady-state flushing neither
// copies into fresh slices nor allocates completion closures. It reports
// false, programming nothing, when no die can take the batch.
func (s *SSD) programBatch(batch []uint32) bool {
	now := s.sched.Now()
	die, ok := s.pickFlushDie(len(batch))
	if !ok {
		return false
	}

	var op *progOp
	if n := len(s.progFree); n > 0 {
		op = s.progFree[n-1]
		s.progFree = s.progFree[:n-1]
	} else {
		op = &progOp{s: s, pages: make([]uint32, 0, s.p.ProgramPages)}
		op.fn = func() { op.s.onProgramDone(op) }
	}
	op.pages = append(op.pages[:0], batch...)
	var work gcWork
	for _, logical := range op.pages {
		work.add(s.ftl.writePage(logical, die))
	}
	// GC bookkeeping completed instantly above. Its time cost serializes
	// ahead of this die's future program ops (full write-amplification
	// backpressure on writes), while the shared die timeline — where reads
	// queue — is charged at most one GCSlice per batch.
	gcCost := int64(work.moved)*(s.p.ReadLatency/int64(s.p.ProgramPages)+s.p.ProgPerPage()) +
		int64(work.erases)*s.p.EraseLatency
	s.stats.FlushBatches++
	s.stats.FlushedBytes += int64(len(op.pages) * s.p.PageSize)
	if gcCost > 0 {
		s.stats.GCInvocations++
		fenceStart := max64(now, s.gcFence[die])
		s.gcFence[die] = fenceStart + gcCost
		if slice := min64(gcCost, s.gcSlice()); slice > 0 {
			_, sliceEnd := reserve(&s.dieBusy[die], now, slice)
			s.gcSliceUntil[die] = sliceEnd
		}
	}
	// Programming clobbers the die's page register.
	s.lastRow[die] = ^uint32(0) >> 1
	ch := s.ftl.channelOfDie(die)
	op.bytes = len(op.pages) * s.p.PageSize
	_, xferEnd := reserve(&s.chanBusy[ch], now, s.p.XferTime(op.bytes))
	// The program runs at full duration on the die's program pipeline,
	// behind any GC backlog; co-located reads are charged only the
	// suspend slice on the shared timeline.
	progStart := max64(xferEnd, s.gcFence[die])
	_, progEnd := reserve(&s.progBusy[die], progStart, s.p.ProgramLatency)
	if slice := min64(s.p.ProgramReadSlice, s.p.ProgramLatency); slice > 0 {
		reserve(&s.dieBusy[die], now, slice)
	}
	if progEnd > s.lastFlushEnd {
		s.lastFlushEnd = progEnd
	}
	s.sched.At(progEnd, op.fn)
	return true
}

// pickFlushDie returns the die that programs the next pages host pages. It
// advances the round-robin stripe cursor, skipping dies whose free pool is
// too depleted to accept writes safely (real FTL allocators weight channel
// selection by free space; without this, valid data slowly concentrates on
// unlucky dies until their GC has no room to operate). dieWritable
// memoizes against the die's mutation version, so a round that probes many
// unchanged dies re-derives nothing. When every die is tight it takes the
// one with the most free blocks among those that can allocate, and reports
// false when none can: the pages then wait in the buffer.
func (s *SSD) pickFlushDie(pages int) (int, bool) {
	n := s.p.Dies()
	for i := 0; i < n; i++ {
		die := s.flushDie
		s.flushDie = (s.flushDie + 1) % n
		if s.ftl.dieWritable(die) && s.ftl.canAlloc(die, pages) {
			return die, true
		}
	}
	best := -1
	for d := 0; d < n; d++ {
		if s.ftl.canAlloc(d, pages) && (best < 0 || s.ftl.freeOf(d) > s.ftl.freeOf(best)) {
			best = d
		}
	}
	return best, best >= 0
}

// onProgramDone releases buffer space, admits writes blocked on it, and
// recycles the batch.
func (s *SSD) onProgramDone(op *progOp) {
	for _, logical := range op.pages {
		s.buf.dec(logical)
	}
	s.bufOccupancy -= int64(op.bytes)
	op.pages = op.pages[:0]
	s.progFree = append(s.progFree, op)
	for s.bufWaitHead < len(s.bufWaitQ) {
		r := s.bufWaitQ[s.bufWaitHead]
		if s.bufOccupancy+int64(r.Size) > s.p.WriteBufBytes {
			break
		}
		s.bufWaitQ[s.bufWaitHead] = nil
		s.bufWaitHead++
		s.admitWrite(r)
	}
	if s.bufWaitHead == len(s.bufWaitQ) {
		s.bufWaitQ = s.bufWaitQ[:0]
		s.bufWaitHead = 0
	}
}

// InjectDieStall blocks one die for dur nanoseconds starting now (fault
// injection: a die stuck in an internal retry/recovery loop). Reads queue
// behind the stall on the shared die timeline and programs behind it on
// the program pipeline, exactly like a long internal operation would.
func (s *SSD) InjectDieStall(die int, dur int64) error {
	if die < 0 || die >= s.p.Dies() {
		return fmt.Errorf("ssd: die %d out of range [0,%d)", die, s.p.Dies())
	}
	if dur <= 0 {
		return fmt.Errorf("ssd: non-positive stall duration %d", dur)
	}
	now := s.sched.Now()
	reserve(&s.dieBusy[die], now, dur)
	reserve(&s.progBusy[die], now, dur)
	return nil
}

// FTLCheck validates FTL invariants (exported for tests).
func (s *SSD) FTLCheck() error { return s.ftl.checkInvariants() }

// WriteAmplification returns the cumulative write amplification factor.
func (s *SSD) WriteAmplification() float64 { return s.ftl.writeAmplification() }
