package ssd

// Differential and allocation-regression tests for the device fast paths:
// the bucketed greedy GC is driven in lockstep against the retained naive
// reference through randomized write/trim/GC sequences, the write-buffer
// table against a plain map, and the steady-state read/flush paths are
// pinned at zero allocations per operation.

import (
	"fmt"
	"sync"
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

// compareFTL asserts every piece of FTL state matches: the maps, each die's
// whole state and the counters.
func compareFTL(fast, slow *ftl) error {
	if err := compareSlice("l2p", fast.l2p, slow.l2p); err != nil {
		return err
	}
	for i, fd := range fast.dies {
		sd := slow.dies[i]
		for _, err := range []error{
			compareSlice("p2l", fd.p2l, sd.p2l),
			compareSlice("valid", fd.valid, sd.valid),
			compareSlice("writePtr", fd.writePtr, sd.writePtr),
			compareSlice("erases", fd.erases, sd.erases),
			compareSlice("free", fd.free, sd.free),
			compareSlice("bucketHead", fd.bucketHead, sd.bucketHead),
			compareSlice("bNext", fd.bNext, sd.bNext),
			compareSlice("bPrev", fd.bPrev, sd.bPrev),
		} {
			if err != nil {
				return fmt.Errorf("die %d %v", i, err)
			}
		}
		if fd.open != sd.open || fd.gcOpen != sd.gcOpen || fd.minValid != sd.minValid {
			return fmt.Errorf("die %d open/gcOpen/minValid: fast (%d,%d,%d), slow (%d,%d,%d)",
				i, fd.open, fd.gcOpen, fd.minValid, sd.open, sd.gcOpen, sd.minValid)
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

// compareSlice reports the first element where fast and slow differ.
func compareSlice[T comparable](name string, fast, slow []T) error {
	if len(fast) != len(slow) {
		return fmt.Errorf("%s length: fast %d, slow %d", name, len(fast), len(slow))
	}
	for i := range fast {
		if fast[i] != slow[i] {
			return fmt.Errorf("%s[%d]: fast %v, slow %v", name, i, fast[i], slow[i])
		}
	}
	return nil
}

// TestFTLDifferentialVictims drives the bucketed FTL and the naive-scan
// reference through an identical randomized write/trim sequence and asserts
// they make identical victim choices — hence identical mappings, die states
// and write-amplification counters — at every step. With trims every victim
// GC picks is already empty; with overwrites alone GC relocates pages into
// the GC open block, and writes invalidate some of them there.
func TestFTLDifferentialVictims(t *testing.T) {
	for _, tc := range []struct {
		name   string
		writes int // in ten steps; the rest trim
	}{{"trims", 8}, {"overwrites", 10}} {
		t.Run(tc.name, func(t *testing.T) {
			p := diffParams()
			fast := newFTL(p)
			slow := newFTL(p)
			for _, d := range slow.dies {
				d.victimOracle = d.pickVictimSlow
			}
			rng := sim.NewRNG(42)
			n := p.LogicalPages()
			dies := p.Dies()

			pickDie := func() int {
				d := rng.Intn(dies)
				fw, sw := fast.dies[d].writable(), slow.dies[d].writable()
				if fw != sw {
					t.Fatalf("writable(%d): fast %v, slow %v", d, fw, sw)
				}
				if fw {
					return d
				}
				best := -1
				for i := 0; i < dies; i++ {
					fa, sa := fast.dies[i].canAlloc(1), slow.dies[i].canAlloc(1)
					if fa != sa {
						t.Fatalf("canAlloc(%d): fast %v, slow %v", i, fa, sa)
					}
					if fa && (best < 0 || len(fast.dies[i].free) > len(fast.dies[best].free)) {
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
				if rng.Intn(10) < tc.writes {
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

			if tc.writes == 10 && fast.gcMoved == 0 {
				t.Fatal("GC relocated no page")
			}
		})
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

// TestRestoredDevicesShareNoArray restores two devices from one cache entry
// on two goroutines, drives one through random writes until GC has run, and
// checks that the other, and a third restore, still hold the uncached
// reference state: no restore may leave a device sharing an array with the
// snapshot, or with another device restored from it.
func TestRestoredDevicesShareNoArray(t *testing.T) {
	p := DCT983()
	p.Name = "snap-alias-test" // unique cache key for this test
	p.UsableBytes = 64 << 20
	ref := New(sim.NewLoop(), p)
	ref.preconditionUncached(Fragmented, sim.NewRNG(78))
	want := ftlDigest(ref)
	New(sim.NewLoop(), p).Precondition(Fragmented, sim.NewRNG(78)) // fills the cache entry

	var devs [2]*SSD
	var wg sync.WaitGroup
	for i := range devs {
		devs[i] = New(sim.NewLoop(), p)
		wg.Add(1)
		go func(dev *SSD, writes int) {
			defer wg.Done()
			dev.Precondition(Fragmented, sim.NewRNG(78))
			rng := sim.NewRNG(79)
			for range writes {
				dev.ftl.writePage(uint32(rng.Intn(p.LogicalPages())), dev.preconditionDie(1))
			}
		}(devs[i], (1-i)*4*p.LogicalPages())
	}
	wg.Wait()
	if devs[0].ftl.gcErases == 0 {
		t.Fatal("the written device ran no GC")
	}
	third := New(sim.NewLoop(), p)
	third.Precondition(Fragmented, sim.NewRNG(78))
	for name, dev := range map[string]*SSD{"unwritten": devs[1], "third": third} {
		if err := compareFTL(dev.ftl, ref.ftl); err != nil {
			t.Fatalf("%s restore: %v", name, err)
		}
		if got := ftlDigest(dev); got != want {
			t.Fatalf("%s restore: digest %#016x, reference %#016x", name, got, want)
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

	// Saturated: 32 random 4 KiB writes always outstanding on the
	// fragmented device fill the write buffer, so host writes wait for
	// buffer space and program batches queue behind GC fences — each die's
	// program lane holds a backlog. Each resubmits from its completion.
	const qd = 32
	saturated := true
	writes := make([]Request, qd)
	for i := range writes {
		w := &writes[i]
		*w = Request{Kind: OpWrite, Size: 4096}
		w.Done = func(r *Request) {
			if saturated {
				r.Offset = rng.Int63n(pages) * 4096
				dev.Submit(r)
			}
		}
		w.Done(w)
	}
	const slice = 2 * sim.Millisecond
	loop.RunUntil(loop.Now() + 200*slice) // warm the lanes' and queues' backing arrays
	// A full buffer is this many program batches in flight.
	batches := int(p.WriteBufBytes / int64(p.ProgramPages*p.PageSize))
	if q, bs := loop.Queued(), dev.Stats().BufOccupancy; q < batches/2 || bs < p.WriteBufBytes/2 {
		t.Fatalf("%d events queued and %d bytes buffered under saturation, want the buffer full and its %d program batches in flight",
			q, bs, batches)
	}
	t.Logf("saturated: %d events queued, %d of %d buffer bytes held", loop.Queued(), dev.Stats().BufOccupancy, p.WriteBufBytes)
	before := dev.Stats().WriteOps
	if avg := testing.AllocsPerRun(50, func() { loop.RunUntil(loop.Now() + slice) }); avg != 0 {
		t.Errorf("saturated write path allocates %.2f allocs per %d ns of simulated time, want 0", avg, slice)
	}
	if n := dev.Stats().WriteOps - before; n < 51 {
		t.Fatalf("%d writes admitted in the measured slices, want the path exercised", n)
	}
	saturated = false
	loop.Run()
	if err := dev.FTLCheck(); err != nil {
		t.Fatal(err)
	}
}
