package ssd

// Differential and allocation-regression tests for the device fast paths:
// the bucketed greedy GC is driven in lockstep against the retained naive
// reference through randomized write/trim/GC sequences, the write-buffer
// table against a plain map, and the steady-state read/flush paths are
// pinned at zero allocations per operation.

import (
	"fmt"
	"testing"

	"gimbal/internal/sim"
)

// diffParams is a small multi-die geometry that still exercises GC heavily.
func diffParams() Params {
	p := DCT983()
	p.Name = "diff"
	p.Channels = 2
	p.DiesPerChannel = 2
	p.PagesPerBlock = 32
	p.ProgramPages = 4
	p.UsableBytes = 32 << 20
	p.OverProvision = 0.5
	return p
}

// compareFTL asserts every piece of externally observable FTL state matches.
func compareFTL(fast, slow *ftl) error {
	for l := range fast.l2p {
		if fast.l2p[l] != slow.l2p[l] {
			return fmt.Errorf("l2p[%d]: fast %d, slow %d", l, fast.l2p[l], slow.l2p[l])
		}
	}
	for b := range fast.valid {
		if fast.valid[b] != slow.valid[b] {
			return fmt.Errorf("valid[%d]: fast %d, slow %d", b, fast.valid[b], slow.valid[b])
		}
		if fast.writePtr[b] != slow.writePtr[b] {
			return fmt.Errorf("writePtr[%d]: fast %d, slow %d", b, fast.writePtr[b], slow.writePtr[b])
		}
		if fast.erases[b] != slow.erases[b] {
			return fmt.Errorf("erases[%d]: fast %d, slow %d", b, fast.erases[b], slow.erases[b])
		}
	}
	for d := range fast.dies {
		fd, sd := &fast.dies[d], &slow.dies[d]
		if fd.open != sd.open || fd.gcOpen != sd.gcOpen {
			return fmt.Errorf("die %d open/gcOpen: fast (%d,%d), slow (%d,%d)",
				d, fd.open, fd.gcOpen, sd.open, sd.gcOpen)
		}
		if len(fd.free) != len(sd.free) {
			return fmt.Errorf("die %d free count: fast %d, slow %d", d, len(fd.free), len(sd.free))
		}
		for i := range fd.free {
			if fd.free[i] != sd.free[i] {
				return fmt.Errorf("die %d free[%d]: fast %d, slow %d", d, i, fd.free[i], sd.free[i])
			}
		}
	}
	if fast.hostPages != slow.hostPages || fast.gcMoved != slow.gcMoved ||
		fast.gcErases != slow.gcErases || fast.gcReclaims != slow.gcReclaims ||
		fast.mappedPages != slow.mappedPages {
		return fmt.Errorf("counters: fast {host %d moved %d erases %d reclaims %d mapped %d}, slow {host %d moved %d erases %d reclaims %d mapped %d}",
			fast.hostPages, fast.gcMoved, fast.gcErases, fast.gcReclaims, fast.mappedPages,
			slow.hostPages, slow.gcMoved, slow.gcErases, slow.gcReclaims, slow.mappedPages)
	}
	return nil
}

// TestFTLDifferentialVictims drives the bucketed FTL and the naive-scan
// reference through an identical randomized write/trim sequence and asserts
// they make identical victim choices — hence identical mappings, free
// lists, and write-amplification counters — at every step.
func TestFTLDifferentialVictims(t *testing.T) {
	p := diffParams()
	fast := newFTL(p)
	slow := newFTL(p)
	slow.victimOracle = slow.pickVictimSlow
	rng := sim.NewRNG(42)
	n := p.LogicalPages()
	dies := p.Dies()

	pickDie := func() int {
		d := rng.Intn(dies)
		fw, sw := fast.dieWritable(d), slow.dieWritable(d)
		if fw != sw {
			t.Fatalf("dieWritable(%d): fast %v, slow %v", d, fw, sw)
		}
		if fw {
			return d
		}
		best := -1
		for i := 0; i < dies; i++ {
			if fast.canAlloc(i, 1) && (best < 0 || fast.freeOf(i) > fast.freeOf(best)) {
				best = i
			}
		}
		if best < 0 {
			t.Fatal("no die can allocate")
		}
		return best
	}

	const steps = 120000
	for step := 0; step < steps; step++ {
		if rng.Intn(10) < 8 {
			l := uint32(rng.Intn(n))
			d := pickDie()
			wf := fast.writePage(l, d)
			ws := slow.writePage(l, d)
			if wf != ws {
				t.Fatalf("step %d: gc work mismatch: fast %+v, slow %+v", step, wf, ws)
			}
		} else {
			span := 1 + rng.Intn(256)
			first := uint32(rng.Intn(n - span))
			fast.trim(first, uint32(span))
			slow.trim(first, uint32(span))
		}
		if step%20000 == 19999 {
			if err := compareFTL(fast, slow); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if err := fast.checkInvariants(); err != nil {
				t.Fatalf("step %d: fast invariants: %v", step, err)
			}
			if err := slow.checkInvariants(); err != nil {
				t.Fatalf("step %d: slow invariants: %v", step, err)
			}
		}
	}
	if err := compareFTL(fast, slow); err != nil {
		t.Fatal(err)
	}
}

// TestBufTableDifferential drives the open-addressed write-buffer table
// against a plain map through randomized inc/dec/reset traffic.
func TestBufTableDifferential(t *testing.T) {
	var tab bufTable
	tab.init(0)
	ref := map[uint32]int32{}
	rng := sim.NewRNG(7)
	live := []uint32{}
	for step := 0; step < 300000; step++ {
		switch op := rng.Intn(100); {
		case op < 45: // inc a fresh-ish key
			k := uint32(rng.Intn(1 << 16))
			tab.inc(k)
			if ref[k]++; ref[k] == 1 {
				live = append(live, k)
			}
		case op < 90: // dec a live key
			if len(live) == 0 {
				continue
			}
			i := rng.Intn(len(live))
			k := live[i]
			tab.dec(k)
			if ref[k]--; ref[k] == 0 {
				delete(ref, k)
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		case op < 99: // probe a random key
			k := uint32(rng.Intn(1 << 16))
			if got, want := tab.get(k), ref[k]; got != want {
				t.Fatalf("step %d: get(%d) = %d, want %d", step, k, got, want)
			}
		default:
			tab.reset()
			ref = map[uint32]int32{}
			live = live[:0]
		}
	}
	for k, want := range ref {
		if got := tab.get(k); got != want {
			t.Fatalf("final: get(%d) = %d, want %d", k, got, want)
		}
	}
	if tab.used != len(ref) {
		t.Fatalf("used = %d, want %d", tab.used, len(ref))
	}
}

// TestPreconditionSnapshotIdentical asserts a cache-hit restore reproduces
// the exact device state the full fill produces.
func TestPreconditionSnapshotIdentical(t *testing.T) {
	p := DCT983()
	p.Name = "snap-test" // unique cache key for this test
	p.UsableBytes = 64 << 20

	ref := New(sim.NewLoop(), p)
	ref.preconditionUncached(Fragmented, sim.NewRNG(77))

	miss := New(sim.NewLoop(), p)
	miss.Precondition(Fragmented, sim.NewRNG(77)) // first call: fills and captures
	hit := New(sim.NewLoop(), p)
	hit.Precondition(Fragmented, sim.NewRNG(77)) // second call: restores

	for name, dev := range map[string]*SSD{"miss": miss, "hit": hit} {
		if err := compareFTL(dev.ftl, ref.ftl); err != nil {
			t.Fatalf("%s path: %v", name, err)
		}
		if dev.flushDie != ref.flushDie {
			t.Fatalf("%s path: flushDie %d, want %d", name, dev.flushDie, ref.flushDie)
		}
		if err := dev.FTLCheck(); err != nil {
			t.Fatalf("%s path: %v", name, err)
		}
	}
}

// TestDeviceHotPathAllocFree pins the steady-state read and buffered
// write/flush paths at zero allocations per operation: victim selection,
// row grouping, completion scheduling, and program batching must all run on
// recycled state.
func TestDeviceHotPathAllocFree(t *testing.T) {
	loop := sim.NewLoop()
	p := DCT983()
	p.UsableBytes = 128 << 20
	dev := New(loop, p)
	dev.Precondition(Fragmented, sim.NewRNG(1))
	rng := sim.NewRNG(9)
	pages := int64(p.LogicalPages())

	read := &Request{Kind: OpRead, Size: 4096, Done: func(*Request) {}}
	readCycle := func() {
		read.Offset = rng.Int63n(pages) * 4096
		dev.Submit(read)
		loop.Run()
	}
	write := &Request{Kind: OpWrite, Size: 4096, Done: func(*Request) {}}
	writeCycle := func() {
		write.Offset = rng.Int63n(pages) * 4096
		dev.Submit(write)
		loop.Run()
	}
	// Warm freelists, scratch capacity, and the event arena.
	for i := 0; i < 512; i++ {
		readCycle()
		writeCycle()
	}
	if avg := testing.AllocsPerRun(300, readCycle); avg != 0 {
		t.Errorf("read path allocates %.2f allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(300, writeCycle); avg != 0 {
		t.Errorf("write/flush path allocates %.2f allocs/op, want 0", avg)
	}
	if err := dev.FTLCheck(); err != nil {
		t.Fatal(err)
	}
}
