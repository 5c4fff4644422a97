package ssd

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"gimbal/internal/sim"
)

// testParams returns a small device that keeps tests fast: 1 GiB usable.
func testParams() Params {
	p := DCT983()
	p.UsableBytes = 1 << 30
	return p
}

// loadGen drives a closed-loop stream against a device inside a loop.
type loadGen struct {
	loop    *sim.Loop
	dev     Device
	rng     *sim.RNG
	kind    OpKind
	ioSize  int
	seq     bool
	span    int64
	cursor  int64
	stop    int64
	bytes   int64
	ops     int64
	latSum  int64
	latMax  int64
	started int64
}

func (g *loadGen) next() {
	if g.loop.Now() >= g.stop {
		return
	}
	var off int64
	if g.seq {
		off = g.cursor
		g.cursor += int64(g.ioSize)
		if g.cursor+int64(g.ioSize) > g.span {
			g.cursor = 0
		}
	} else {
		pages := g.span / int64(g.ioSize)
		off = g.rng.Int63n(pages) * int64(g.ioSize)
	}
	r := &Request{Kind: g.kind, Offset: off, Size: g.ioSize, Done: g.done}
	g.dev.Submit(r)
}

func (g *loadGen) done(r *Request) {
	g.bytes += int64(r.Size)
	g.ops++
	lat := r.Latency()
	g.latSum += lat
	if lat > g.latMax {
		g.latMax = lat
	}
	g.next()
}

// measureBW runs qd-deep closed-loop IO for dur sim-nanoseconds and returns
// the achieved bandwidth in MB/s.
func measureBW(t *testing.T, dev Device, loop *sim.Loop, rng *sim.RNG,
	kind OpKind, ioSize, qd int, seq bool, dur int64) (mbps float64, avgLatUs float64) {
	t.Helper()
	g := &loadGen{loop: loop, dev: dev, rng: rng, kind: kind, ioSize: ioSize,
		seq: seq, span: dev.Capacity(), stop: loop.Now() + dur, started: loop.Now()}
	for i := 0; i < qd; i++ {
		g.next()
	}
	loop.RunUntil(g.stop)
	loop.Run() // drain outstanding completions
	el := float64(loop.Now()-g.started) / 1e9
	if g.ops == 0 {
		return 0, 0
	}
	return float64(g.bytes) / 1e6 / el, float64(g.latSum) / float64(g.ops) / 1e3
}

func TestParamsValidate(t *testing.T) {
	if err := DCT983().Validate(); err != nil {
		t.Fatalf("DCT983 invalid: %v", err)
	}
	if err := P3600().Validate(); err != nil {
		t.Fatalf("P3600 invalid: %v", err)
	}
	bad := DCT983()
	bad.Channels = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero channels should be invalid")
	}
	bad = DCT983()
	bad.GCTriggerFree = 1
	if err := bad.Validate(); err == nil {
		t.Fatal("GC trigger 1 should be invalid")
	}
}

func TestFTLMappingRoundTrip(t *testing.T) {
	f := newFTL(testParams())
	for l := uint32(0); l < 1000; l++ {
		f.writePage(l, int(l)%f.p.Dies())
	}
	for l := uint32(0); l < 1000; l++ {
		phys := f.lookup(l)
		if phys == invalidPage {
			t.Fatalf("page %d unmapped after write", l)
		}
		if f.p2l[phys] != l {
			t.Fatalf("reverse map broken at %d", l)
		}
	}
	if err := f.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFTLOverwriteInvalidatesOld(t *testing.T) {
	f := newFTL(testParams())
	f.writePage(7, 0)
	old := f.lookup(7)
	f.writePage(7, 1)
	if f.lookup(7) == old {
		t.Fatal("overwrite did not move the page")
	}
	if f.p2l[old] != invalidPage {
		t.Fatal("old physical page still mapped")
	}
	if f.mappedPages != 1 {
		t.Fatalf("mappedPages = %d, want 1", f.mappedPages)
	}
}

func TestFTLTrim(t *testing.T) {
	f := newFTL(testParams())
	for l := uint32(0); l < 64; l++ {
		f.writePage(l, 0)
	}
	f.trim(0, 32)
	for l := uint32(0); l < 32; l++ {
		if f.lookup(l) != invalidPage {
			t.Fatalf("page %d still mapped after trim", l)
		}
	}
	for l := uint32(32); l < 64; l++ {
		if f.lookup(l) == invalidPage {
			t.Fatalf("page %d lost by trim", l)
		}
	}
	if err := f.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFTLGCReclaimsSpace(t *testing.T) {
	p := testParams()
	p.UsableBytes = 64 << 20 // small device so GC triggers quickly
	f := newFTL(p)
	rng := sim.NewRNG(3)
	n := p.LogicalPages()
	// Overwrite 4x capacity randomly; without GC the FTL would exhaust
	// free blocks long before this finishes.
	for i := 0; i < 4*n; i++ {
		l := uint32(rng.Intn(n))
		f.writePage(l, rng.Intn(p.Dies()))
	}
	if f.gcReclaims == 0 {
		t.Fatal("GC never ran")
	}
	if wa := f.writeAmplification(); wa <= 1.0 {
		t.Fatalf("random overwrite write amp = %v, want > 1", wa)
	}
	if err := f.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFTLSequentialOverwriteCheapGC(t *testing.T) {
	p := testParams()
	p.UsableBytes = 64 << 20
	f := newFTL(p)
	n := p.LogicalPages()
	// Three full sequential passes: blocks are invalidated wholesale, so
	// GC victims are empty and write amplification stays ~1.
	for pass := 0; pass < 3; pass++ {
		for l := 0; l < n; l++ {
			die := (l / p.ProgramPages) % p.Dies()
			f.writePage(uint32(l), die)
		}
	}
	if wa := f.writeAmplification(); wa > 1.15 {
		t.Fatalf("sequential write amp = %v, want ~1", wa)
	}
}

// TestFTLCheckPerDieSpace: the audit accounts for every block of a die, so
// a block dropped from the free list (a reclaim that forgot to return its
// victim) or listed there twice is reported.
func TestFTLCheckPerDieSpace(t *testing.T) {
	f := newFTL(testParams())
	ds := &f.dies[3]
	blk := ds.free[len(ds.free)-1]
	ds.free = ds.free[:len(ds.free)-1]
	if err := f.checkInvariants(); err == nil || !strings.Contains(err.Error(), "accounts for") {
		t.Fatalf("lost free block: err %v", err)
	}
	ds.free = append(ds.free, blk, blk)
	if err := f.checkInvariants(); err == nil || !strings.Contains(err.Error(), "free twice") {
		t.Fatalf("free block listed twice: err %v", err)
	}
}

// Property: any sequence of page writes and trims preserves FTL invariants.
func TestFTLInvariantsProperty(t *testing.T) {
	p := testParams()
	p.UsableBytes = 16 << 20
	f := func(seed uint64, ops []uint16) bool {
		ftl := newFTL(p)
		rng := sim.NewRNG(seed)
		n := ftl.p.LogicalPages()
		for _, op := range ops {
			l := uint32(int(op) % n)
			if op%5 == 0 {
				ftl.trim(l, 1)
			} else {
				ftl.writePage(l, rng.Intn(p.Dies()))
			}
		}
		return ftl.checkInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestFTLHostWritesNeverFail: random writes over the whole logical span of
// a NAND with little over-provisioning per die (512 MiB: 19 blocks a die,
// 16 of them logical) neither fail nor wedge. A program batch goes only to
// a die that can take it and keep a free block for GC; by the drain every
// write has completed, the buffer is empty and the FTL audit is clean.
func TestFTLHostWritesNeverFail(t *testing.T) {
	for _, capacity := range []int64{512 << 20, 1 << 30} {
		for _, cond := range []Condition{Clean, Fragmented} {
			for _, w := range []struct{ size, qd int }{{4096, 32}, {64 << 10, 4}} {
				t.Run(fmt.Sprintf("%dMiB/%s/%dKiB-QD%d", capacity>>20, cond, w.size>>10, w.qd), func(t *testing.T) {
					t.Parallel()
					loop := sim.NewLoop()
					p := DCT983()
					p.UsableBytes = capacity
					dev := New(loop, p)
					dev.Precondition(cond, sim.NewRNG(1))
					mbps, _ := measureBW(t, dev, loop, sim.NewRNG(2), OpWrite, w.size, w.qd, false, 30*sim.Second)
					if dev.inService != 0 || dev.bufOccupancy != 0 {
						t.Fatalf("wedged at %.1f s: %d commands in service, %d bytes buffered",
							float64(loop.Now())/1e9, dev.inService, dev.bufOccupancy)
					}
					if err := dev.FTLCheck(); err != nil {
						t.Fatal(err)
					}
					t.Logf("%.0f MB/s, write amplification %.2f", mbps, dev.WriteAmplification())
				})
			}
		}
	}
}

// TestDeviceWritesWaitWhenNoDieCanAllocate: when no die can take a program
// batch and keep a free block for GC, the batch stays in the write buffer,
// a write that needs buffer space waits for it, and a trim that gives GC a
// victim lets both through.
func TestDeviceWritesWaitWhenNoDieCanAllocate(t *testing.T) {
	p := DCT983()
	p.Name = "one-die"
	p.Channels, p.DiesPerChannel = 1, 1
	p.PagesPerBlock, p.ProgramPages = 32, 4
	p.OverProvision, p.GCTriggerFree = 0.01, 2 // five blocks: host open, GC open, three logical
	p.UsableBytes = 96 * 4096
	p.WriteBufBytes = 16 << 10 // one program batch
	loop := sim.NewLoop()
	dev := New(loop, p)
	write := func(off int64) *bool {
		done := new(bool)
		dev.Submit(&Request{Kind: OpWrite, Offset: off, Size: 16 << 10, Done: func(*Request) { *done = true }})
		return done
	}
	for off := int64(0); off < p.UsableBytes; off += 16 << 10 {
		write(off)
		loop.Run()
	}
	// The host open block is full, the other logical blocks are full of
	// valid data, and one free block is left.
	first, second := write(0), write(16<<10)
	loop.Run()
	if !*first || *second {
		t.Fatalf("first write acknowledged %v (want buffered), second %v (want waiting for buffer space)", *first, *second)
	}
	dev.Submit(&Request{Kind: OpTrim, Offset: 32 * 4096, Size: 32 * 4096, Done: func(*Request) {}})
	loop.Run()
	if !*second || dev.bufOccupancy != 0 {
		t.Fatalf("after the trim: second write done %v, %d bytes still buffered", *second, dev.bufOccupancy)
	}
	if err := dev.FTLCheck(); err != nil {
		t.Fatal(err)
	}
}

func TestDeviceAlignmentAndBounds(t *testing.T) {
	loop := sim.NewLoop()
	dev := New(loop, testParams())
	mustPanic := func(r *Request) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("no panic for %+v", r)
			}
		}()
		if r.Done == nil && r.Offset >= 0 && r.Size > 0 {
			r.Done = func(*Request) {}
		}
		dev.Submit(r)
	}
	mustPanic(&Request{Kind: OpRead, Offset: 1, Size: 4096})
	mustPanic(&Request{Kind: OpRead, Offset: 0, Size: 100})
	mustPanic(&Request{Kind: OpRead, Offset: dev.Capacity(), Size: 4096})
	mustPanic(&Request{Kind: OpWrite, Offset: 0, Size: 0})
	// nil Done must also panic.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("no panic for nil Done")
			}
		}()
		dev.Submit(&Request{Kind: OpRead, Offset: 0, Size: 4096})
	}()
}

func TestDeviceUnloadedReadLatency(t *testing.T) {
	loop := sim.NewLoop()
	dev := New(loop, testParams())
	dev.Precondition(Clean, sim.NewRNG(1))
	var lat int64
	dev.Submit(&Request{Kind: OpRead, Offset: 0, Size: 4096, Done: func(r *Request) {
		lat = r.Latency()
	}})
	loop.Run()
	// cmd 3us + tR 65us + xfer ~10us ≈ 78us (paper: ~75-90us unloaded).
	if lat < 60_000 || lat > 120_000 {
		t.Fatalf("unloaded 4KB read latency = %dus, want 60-120us", lat/1000)
	}
}

func TestDeviceBufferedWriteLatency(t *testing.T) {
	loop := sim.NewLoop()
	dev := New(loop, testParams())
	var lat int64
	dev.Submit(&Request{Kind: OpWrite, Offset: 0, Size: 4096, Done: func(r *Request) {
		lat = r.Latency()
	}})
	loop.Run()
	if lat > 30_000 {
		t.Fatalf("buffered write latency = %dus, want < 30us", lat/1000)
	}
}

func TestDeviceLargeReadFasterPerByte(t *testing.T) {
	loop := sim.NewLoop()
	dev := New(loop, testParams())
	dev.Precondition(Clean, sim.NewRNG(1))
	var lat4k, lat128k int64
	dev.Submit(&Request{Kind: OpRead, Offset: 0, Size: 4096, Done: func(r *Request) { lat4k = r.Latency() }})
	loop.Run()
	dev.Submit(&Request{Kind: OpRead, Offset: 1 << 20, Size: 128 << 10, Done: func(r *Request) { lat128k = r.Latency() }})
	loop.Run()
	if lat128k <= lat4k {
		t.Fatalf("128KB (%d) should take longer than 4KB (%d)", lat128k, lat4k)
	}
	// But far less than 32x longer: internal parallelism.
	if lat128k > 8*lat4k {
		t.Fatalf("128KB read not parallelized: %dus vs %dus", lat128k/1000, lat4k/1000)
	}
}

func TestDeviceReadAfterWriteHitsBuffer(t *testing.T) {
	loop := sim.NewLoop()
	dev := New(loop, testParams())
	var wdone bool
	dev.Submit(&Request{Kind: OpWrite, Offset: 0, Size: 4096, Done: func(*Request) { wdone = true }})
	loop.Step() // run just the admit, not the program completion
	var lat int64
	dev.Submit(&Request{Kind: OpRead, Offset: 0, Size: 4096, Done: func(r *Request) { lat = r.Latency() }})
	loop.Run()
	if !wdone {
		t.Fatal("write never completed")
	}
	if lat > 20_000 {
		t.Fatalf("read of buffered page = %dus, want buffer-hit latency", lat/1000)
	}
}

func TestDeviceFlushWaitsForPrograms(t *testing.T) {
	loop := sim.NewLoop()
	dev := New(loop, testParams())
	var flushAt, progEnd int64
	dev.Submit(&Request{Kind: OpWrite, Offset: 0, Size: 128 << 10, Done: func(*Request) {}})
	progEnd = dev.lastFlushEnd
	dev.Submit(&Request{Kind: OpFlush, Done: func(r *Request) { flushAt = r.CompleteTime }})
	loop.Run()
	if flushAt < progEnd {
		t.Fatalf("flush completed at %d before programs finished at %d", flushAt, progEnd)
	}
}

func TestDeviceInternalQDQueues(t *testing.T) {
	p := testParams()
	p.InternalQD = 4
	loop := sim.NewLoop()
	dev := New(loop, p)
	dev.Precondition(Clean, sim.NewRNG(1))
	done := 0
	for i := 0; i < 10; i++ {
		dev.Submit(&Request{Kind: OpRead, Offset: int64(i) * 4096, Size: 4096,
			Done: func(*Request) { done++ }})
	}
	if q := dev.Stats().QueuedHost; q != 6 {
		t.Fatalf("queued = %d, want 6", q)
	}
	loop.Run()
	if done != 10 {
		t.Fatalf("completed %d of 10", done)
	}
}

func TestNullDevice(t *testing.T) {
	loop := sim.NewLoop()
	n := NewNull(loop, 1<<30, 0)
	done := false
	n.Submit(&Request{Kind: OpRead, Offset: 0, Size: 4096, Done: func(*Request) { done = true }})
	if !done {
		t.Fatal("zero-delay null device should complete inline")
	}
	nd := NewNull(loop, 1<<30, 1000)
	var lat int64
	nd.Submit(&Request{Kind: OpRead, Offset: 0, Size: 4096, Done: func(r *Request) { lat = r.Latency() }})
	loop.Run()
	if lat != 1000 {
		t.Fatalf("delayed null latency = %d, want 1000", lat)
	}
}

func TestPreconditionStates(t *testing.T) {
	loop := sim.NewLoop()
	dev := New(loop, testParams())
	dev.Precondition(Fragmented, sim.NewRNG(2))
	if err := dev.FTLCheck(); err != nil {
		t.Fatal(err)
	}
	st := dev.Stats()
	if st.WriteAmp != 1 {
		t.Fatalf("counters not reset after precondition: WA=%v", st.WriteAmp)
	}
	// Every logical page must be mapped after either precondition.
	if got, want := dev.ftl.mappedPages, uint64(dev.p.LogicalPages()); got != want {
		t.Fatalf("mapped pages = %d, want %d", got, want)
	}
}

// Calibration: the headline device behaviours from the paper, asserted as
// broad ranges. These are the numbers every experiment depends on.
func TestCalibrationCleanRead4K(t *testing.T) {
	loop := sim.NewLoop()
	dev := New(loop, DCT983())
	dev.Precondition(Clean, sim.NewRNG(1))
	// QD32 does not saturate a 32-die device under random placement
	// (balls-in-bins); the paper's 1.6-1.7 GB/s "max" needs deep queues.
	bw32, lat := measureBW(t, dev, loop, sim.NewRNG(2), OpRead, 4096, 32, false, 300*sim.Millisecond)
	t.Logf("4KB random read QD32: %.0f MB/s avg %.0fus", bw32, lat)
	if bw32 < 700 || bw32 > 1500 {
		t.Errorf("4KB rand read QD32 = %.0f MB/s, want ~900-1300", bw32)
	}
	loop2 := sim.NewLoop()
	dev2 := New(loop2, DCT983())
	dev2.Precondition(Clean, sim.NewRNG(1))
	bw256, _ := measureBW(t, dev2, loop2, sim.NewRNG(2), OpRead, 4096, 256, false, 300*sim.Millisecond)
	t.Logf("4KB random read QD256: %.0f MB/s", bw256)
	if bw256 < 1300 || bw256 > 2100 {
		t.Errorf("4KB rand read QD256 = %.0f MB/s, want ~1600 (paper 1.67GB/s)", bw256)
	}
}

func TestCalibrationCleanRead128K(t *testing.T) {
	loop := sim.NewLoop()
	dev := New(loop, DCT983())
	dev.Precondition(Clean, sim.NewRNG(1))
	bw, lat := measureBW(t, dev, loop, sim.NewRNG(2), OpRead, 128<<10, 8, false, 300*sim.Millisecond)
	t.Logf("128KB random read QD8: %.0f MB/s avg %.0fus", bw, lat)
	if bw < 2700 || bw > 3400 {
		t.Errorf("128KB read = %.0f MB/s, want ~3200 (paper 3.16GB/s)", bw)
	}
}

func TestCalibrationCleanSeqWrite(t *testing.T) {
	loop := sim.NewLoop()
	dev := New(loop, DCT983())
	dev.Precondition(Clean, sim.NewRNG(1))
	bw, lat := measureBW(t, dev, loop, sim.NewRNG(2), OpWrite, 128<<10, 4, true, 300*sim.Millisecond)
	t.Logf("128KB seq write QD4: %.0f MB/s avg %.0fus", bw, lat)
	if bw < 1100 || bw > 1800 {
		t.Errorf("seq write = %.0f MB/s, want ~1400", bw)
	}
}

func TestCalibrationFragmentedRandWrite(t *testing.T) {
	loop := sim.NewLoop()
	dev := New(loop, DCT983())
	dev.Precondition(Fragmented, sim.NewRNG(1))
	bw, lat := measureBW(t, dev, loop, sim.NewRNG(2), OpWrite, 4096, 32, false, 500*sim.Millisecond)
	t.Logf("fragmented 4KB random write QD32: %.0f MB/s avg %.0fus WA=%.1f",
		bw, lat, dev.WriteAmplification())
	if bw < 100 || bw > 320 {
		t.Errorf("fragmented rand write = %.0f MB/s, want ~180", bw)
	}
	if wa := dev.WriteAmplification(); wa < 2 {
		t.Errorf("fragmented write amp = %.1f, want >= 2", wa)
	}
}

func TestCalibrationFragmentedRandRead(t *testing.T) {
	loop := sim.NewLoop()
	dev := New(loop, DCT983())
	dev.Precondition(Fragmented, sim.NewRNG(1))
	bw, _ := measureBW(t, dev, loop, sim.NewRNG(2), OpRead, 4096, 256, false, 300*sim.Millisecond)
	t.Logf("fragmented 4KB random read QD256: %.0f MB/s", bw)
	if bw < 1300 {
		t.Errorf("fragmented pure read should stay fast, got %.0f MB/s", bw)
	}
}

func TestWriteCostWorstCaseRatio(t *testing.T) {
	// The paper derives write_cost_worst = 9 from the read/write datasheet
	// ratio. Check our fragmented read:write bandwidth ratio lands in the
	// same regime (roughly 5-12x).
	loop := sim.NewLoop()
	dev := New(loop, DCT983())
	dev.Precondition(Fragmented, sim.NewRNG(1))
	rbw, _ := measureBW(t, dev, loop, sim.NewRNG(2), OpRead, 4096, 256, false, 200*sim.Millisecond)
	loop2 := sim.NewLoop()
	dev2 := New(loop2, DCT983())
	dev2.Precondition(Fragmented, sim.NewRNG(1))
	wbw, _ := measureBW(t, dev2, loop2, sim.NewRNG(2), OpWrite, 4096, 32, false, 500*sim.Millisecond)
	ratio := rbw / wbw
	t.Logf("fragmented read/write ratio = %.1f (read %.0f, write %.0f MB/s)", ratio, rbw, wbw)
	if ratio < 4 || ratio > 16 {
		t.Errorf("read/write cost ratio = %.1f, want 4-16 (paper ~9)", ratio)
	}
}
