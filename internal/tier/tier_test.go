package tier

import (
	"testing"

	"gimbal/internal/sim"
	"gimbal/internal/ssd"
)

// fakeDev is a scripted inner device: fixed latency, records every
// submission in order.
type fakeDev struct {
	clk sim.Scheduler
	lat int64
	cap int64

	subs []subRec
}

type subRec struct {
	kind ssd.OpKind
	off  int64
	size int
}

func (d *fakeDev) Submit(r *ssd.Request) {
	d.subs = append(d.subs, subRec{r.Kind, r.Offset, r.Size})
	r.SubmitTime = d.clk.Now()
	d.clk.After(d.lat, func() {
		r.CompleteTime = d.clk.Now()
		if r.Done != nil {
			r.Done(r)
		}
	})
}

func (d *fakeDev) Capacity() int64 { return d.cap }

// testParams is a tiny tier: 16 slots, 4KiB pages, a linger long enough
// that doIO's bounded window never fires it.
func testParams() Params {
	p := DefaultParams(16 * 4096)
	p.DestageDelay = sim.Millisecond
	p.DestagePages = 8
	return p
}

func newRig(t *testing.T, p Params) (*sim.Loop, *fakeDev, *Device) {
	t.Helper()
	loop := sim.NewLoop()
	inner := &fakeDev{clk: loop, lat: 50 * sim.Microsecond, cap: 1 << 30}
	return loop, inner, New(loop, inner, p)
}

// doIO submits one request and runs a bounded window — long enough for any
// single completion (tier ≈ µs, fake inner 50µs), shorter than the destage
// linger, so tests observe the dirty set rather than a fully drained tier.
func doIO(loop *sim.Loop, d *Device, kind ssd.OpKind, off int64, size int) *ssd.Request {
	done := false
	r := &ssd.Request{Kind: kind, Offset: off, Size: size,
		Done: func(*ssd.Request) { done = true }}
	d.Submit(r)
	loop.RunUntil(loop.Now() + 80*sim.Microsecond)
	if !done {
		panic("tier test: request never completed")
	}
	return r
}

func TestTierReadPromotionOnSecondMiss(t *testing.T) {
	loop, inner, d := newRig(t, testParams())

	// First miss: forwarded, ghost-added, not installed.
	r := doIO(loop, d, ssd.OpRead, 0, 4096)
	if r.FastTier {
		t.Fatal("first read should miss")
	}
	if st := d.Stats(); st.Misses != 1 || st.Resident != 0 || st.Promotions != 0 {
		t.Fatalf("after first miss: %+v", st)
	}

	// Second miss within the ghost window: forwarded but promoted.
	r = doIO(loop, d, ssd.OpRead, 0, 4096)
	if r.FastTier {
		t.Fatal("second read should still miss (promotion installs for next time)")
	}
	if st := d.Stats(); st.Misses != 2 || st.Resident != 1 || st.Promotions != 1 {
		t.Fatalf("after second miss: %+v", st)
	}

	// Third read: tier hit at tier latency, NAND untouched.
	nandReads := len(inner.subs)
	r = doIO(loop, d, ssd.OpRead, 0, 4096)
	if !r.FastTier {
		t.Fatal("third read should hit the tier")
	}
	if r.GCWait != 0 {
		t.Fatalf("tier hit carries GCWait %d", r.GCWait)
	}
	if lat := r.Latency(); lat < d.Params().ReadLatency || lat > 10*d.Params().ReadLatency {
		t.Fatalf("tier hit latency %d implausible for ReadLatency %d", lat, d.Params().ReadLatency)
	}
	if len(inner.subs) != nandReads {
		t.Fatal("tier hit reached NAND")
	}
	if st := d.Stats(); st.Hits != 1 || st.HitBytes != 4096 {
		t.Fatalf("after hit: %+v", st)
	}
}

func TestTierWriteAdmission(t *testing.T) {
	loop, inner, d := newRig(t, testParams())

	// Small write: absorbed write-back, NAND untouched until destage.
	r := doIO(loop, d, ssd.OpWrite, 0, 8192)
	if !r.FastTier {
		t.Fatal("small write should be absorbed")
	}
	if st := d.Stats(); st.WriteBacks != 1 || st.Resident != 2 {
		t.Fatalf("after write-back: %+v", st)
	}

	// Large write (> WriteBackMax): write-around, forwarded, and it
	// invalidates the overlapping resident pages.
	big := d.Params().WriteBackMax * 2
	r = doIO(loop, d, ssd.OpWrite, 0, big)
	if r.FastTier {
		t.Fatal("large write should go around the tier")
	}
	st := d.Stats()
	if st.WriteArounds != 1 {
		t.Fatalf("after write-around: %+v", st)
	}
	if st.Resident != 0 {
		t.Fatalf("write-around left stale tier pages resident: %+v", st)
	}
	found := false
	for _, s := range inner.subs {
		if s.kind == ssd.OpWrite && s.size == big {
			found = true
		}
	}
	if !found {
		t.Fatal("write-around never reached the inner device")
	}
}

func TestTierDirtyBoundForcesWriteAround(t *testing.T) {
	p := testParams()
	p.DestagePages = 1 // one page per batch: a slow NAND cannot keep up
	loop, inner, d := newRig(t, p)
	inner.lat = sim.Second // destage in flight never completes in-test

	// maxDirty = 8. The urgent destage at 6 dirty pages takes one page
	// into flight; subsequent batches wait behind it, so the dirty set
	// climbs to the bound.
	maxDirty := int(p.MaxDirtyFrac * float64(16))
	for i := 0; i < maxDirty+1; i++ {
		r := doIO(loop, d, ssd.OpWrite, int64(i)*4096, 4096)
		if !r.FastTier {
			t.Fatalf("write %d not absorbed with budget available", i)
		}
	}
	st := d.Stats()
	if st.Dirty != maxDirty || st.WriteArounds != 0 {
		t.Fatalf("filling the dirty budget: %+v", st)
	}
	// One more small write must go around rather than block or exceed the
	// bound (it completes at NAND speed, so don't wait for it here).
	r := &ssd.Request{Kind: ssd.OpWrite, Offset: int64(maxDirty+1) * 4096,
		Size: 4096, Done: func(*ssd.Request) {}}
	d.Submit(r)
	if r.FastTier {
		t.Fatal("write beyond the dirty bound was absorbed")
	}
	if st := d.Stats(); st.Dirty != maxDirty || st.WriteArounds != 1 {
		t.Fatalf("after bound overflow: %+v", st)
	}
}

func TestTierDestageCoalescesAndAbsorbsOverwrites(t *testing.T) {
	loop, inner, d := newRig(t, testParams())

	// Four consecutive dirty pages, with one page overwritten twice.
	for i := 0; i < 4; i++ {
		doIO(loop, d, ssd.OpWrite, int64(i)*4096, 4096)
	}
	doIO(loop, d, ssd.OpWrite, 2*4096, 4096) // overwrite page 2
	if st := d.Stats(); st.Absorbed != 1 {
		t.Fatalf("overwrite of a dirty page not absorbed: %+v", st)
	}

	// Let the linger elapse and the batch drain.
	loop.RunUntil(loop.Now() + sim.Second)
	loop.Run()

	st := d.Stats()
	if st.Dirty != 0 {
		t.Fatalf("dirty pages survived destage: %+v", st)
	}
	if st.Destages != 1 || st.DestageBytes != 4*4096 {
		t.Fatalf("want one coalesced 4-page destage span, got %+v", st)
	}
	var spans []subRec
	for _, s := range inner.subs {
		if s.kind == ssd.OpWrite {
			spans = append(spans, s)
		}
	}
	if len(spans) != 1 || spans[0].off != 0 || spans[0].size != 4*4096 {
		t.Fatalf("inner writes %+v, want one span [0, 16KiB)", spans)
	}
	// Pages are clean and still resident: reads now hit.
	if r := doIO(loop, d, ssd.OpRead, 0, 4*4096); !r.FastTier {
		t.Fatal("destaged pages should remain resident and hit")
	}
}

func TestTierFlushForcesDestageFirst(t *testing.T) {
	loop, inner, d := newRig(t, testParams())

	for i := 0; i < 3; i++ {
		doIO(loop, d, ssd.OpWrite, int64(i)*4096, 4096)
	}
	doIO(loop, d, ssd.OpFlush, 0, 0)
	if st := d.Stats(); st.Dirty != 0 {
		t.Fatalf("flush left dirty pages: %+v", st)
	}
	// The inner device must see the destage span before the flush.
	var order []ssd.OpKind
	for _, s := range inner.subs {
		order = append(order, s.kind)
	}
	if len(order) != 2 || order[0] != ssd.OpWrite || order[1] != ssd.OpFlush {
		t.Fatalf("inner op order %v, want [write flush]", order)
	}
}

func TestTierTrimInvalidates(t *testing.T) {
	loop, inner, d := newRig(t, testParams())

	doIO(loop, d, ssd.OpWrite, 0, 2*4096)
	doIO(loop, d, ssd.OpTrim, 0, 2*4096)
	if st := d.Stats(); st.Resident != 0 || st.Dirty != 0 {
		t.Fatalf("trim left tier pages: %+v", st)
	}
	if got := inner.subs[len(inner.subs)-1]; got.kind != ssd.OpTrim {
		t.Fatalf("trim not forwarded, last inner op %+v", got)
	}
	// The trimmed page must not resurface via the dirty queue.
	loop.RunUntil(loop.Now() + sim.Second)
	loop.Run()
	if st := d.Stats(); st.Destages != 0 {
		t.Fatalf("trimmed pages destaged: %+v", st)
	}
}

func TestTierEvictionNeverBlocks(t *testing.T) {
	p := testParams()
	p.DestageDelay = 0 // destage immediately so slots go clean fast
	loop, _, d := newRig(t, p)

	// Touch far more pages than the tier holds: every write must complete
	// (absorbed or around), never wait for a slot.
	for i := 0; i < 200; i++ {
		doIO(loop, d, ssd.OpWrite, int64(i)*4096, 4096)
	}
	st := d.Stats()
	if st.Resident > 16 {
		t.Fatalf("resident %d exceeds slot count", st.Resident)
	}
	if st.WriteBacks+st.WriteArounds != 200 {
		t.Fatalf("lost writes: %+v", st)
	}
	if st.Evictions == 0 {
		t.Fatalf("working set 12x the tier never evicted: %+v", st)
	}
}

func TestTierWriteCostModel(t *testing.T) {
	p := testParams()
	p.DestageDelay = sim.Second
	loop, _, d := newRig(t, p)

	// All write-back window → absorb 1.
	doIO(loop, d, ssd.OpWrite, 0, 4096)
	absorb, wa := d.WriteCostModel()
	if absorb != 1 {
		t.Fatalf("all-absorbed window: absorb %v, want 1", absorb)
	}
	if wa != 1 { // fakeDev is not a *ssd.SSD: neutral WA
		t.Fatalf("no NAND model: wa %v, want 1", wa)
	}

	// All write-around window → EWMA halves toward 0.
	doIO(loop, d, ssd.OpWrite, 4096, d.Params().WriteBackMax*2)
	absorb, _ = d.WriteCostModel()
	if absorb != 0.5 {
		t.Fatalf("EWMA after opposite window: absorb %v, want 0.5", absorb)
	}

	// A window with no writes holds the previous estimate.
	absorb, _ = d.WriteCostModel()
	if absorb != 0.5 {
		t.Fatalf("idle window moved the estimate: absorb %v", absorb)
	}
}

// TestTierHotPathAllocFree pins the steady-state tier paths — read hits,
// read misses with ghost maintenance, absorbed write-backs, and background
// destage through the real NAND model — at zero allocations per IO.
func TestTierHotPathAllocFree(t *testing.T) {
	loop := sim.NewLoop()
	sp := ssd.DCT983()
	sp.UsableBytes = 64 << 20
	nand := ssd.New(loop, sp)
	nand.Precondition(ssd.Fragmented, sim.NewRNG(1))

	tp := DefaultParams(4 << 20) // 1024 slots
	tp.DestageDelay = 50 * sim.Microsecond
	d := New(loop, nand, tp)
	rng := sim.NewRNG(9)

	hot := int64(256) // pages; fits the tier, so hits and write-backs dominate
	read := &ssd.Request{Kind: ssd.OpRead, Size: 4096, Done: func(*ssd.Request) {}}
	readCycle := func() {
		read.Offset = rng.Int63n(hot) * 4096
		d.Submit(read)
		loop.Run()
	}
	write := &ssd.Request{Kind: ssd.OpWrite, Size: 4096, Done: func(*ssd.Request) {}}
	writeCycle := func() {
		write.Offset = rng.Int63n(hot) * 4096
		d.Submit(write)
		loop.Run()
	}
	// Warm freelists, the dirty queue's capacity, and the event arena.
	for i := 0; i < 2048; i++ {
		writeCycle()
		readCycle()
	}
	if avg := testing.AllocsPerRun(500, readCycle); avg != 0 {
		t.Errorf("read path allocates %.2f allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(500, writeCycle); avg != 0 {
		t.Errorf("write/destage path allocates %.2f allocs/op, want 0", avg)
	}
	st := d.Stats()
	if st.Hits == 0 || st.WriteBacks == 0 || st.Destages == 0 {
		t.Fatalf("alloc test never exercised the hot paths: %+v", st)
	}
}
