package blobstore

import (
	"testing"

	"gimbal/internal/nvme"
	"gimbal/internal/sim"
)

// fakeBackend completes IOs after a fixed delay and records them.
type fakeBackend struct {
	loop  *sim.Loop
	delay int64
	head  int
	ios   []*nvme.IO
}

func (f *fakeBackend) Submit(io *nvme.IO) {
	f.ios = append(f.ios, io)
	f.loop.After(f.delay, func() { io.Done(io, nvme.Completion{Status: nvme.StatusOK}) })
}

func pool(loop *sim.Loop, n int, delays ...int64) ([]*Backend, []*fakeBackend) {
	var bs []*Backend
	var fs []*fakeBackend
	for i := 0; i < n; i++ {
		d := int64(50_000)
		if i < len(delays) {
			d = delays[i]
		}
		fb := &fakeBackend{loop: loop, delay: d, head: 100}
		fs = append(fs, fb)
		fb2 := fb
		bs = append(bs, &Backend{
			Target:   fb,
			Headroom: func() int { return fb2.head },
			Capacity: 1 << 30,
		})
	}
	return bs, fs
}

func caps(bs []*Backend) []int64 {
	out := make([]int64, len(bs))
	for i, b := range bs {
		out[i] = b.Capacity
	}
	return out
}

func TestGlobalBitmapAllocFree(t *testing.T) {
	loop := sim.NewLoop()
	bs, _ := pool(loop, 1)
	cfg := DefaultConfig()
	g := NewGlobal(cfg, caps(bs))
	total := g.FreeMegas(0)
	if total != int((1<<30)/cfg.MegaBlobBytes) {
		t.Fatalf("megas = %d", total)
	}
	seen := map[int64]bool{}
	for i := 0; i < total; i++ {
		off, err := g.AllocMega(0)
		if err != nil {
			t.Fatal(err)
		}
		if seen[off] {
			t.Fatalf("offset %d allocated twice", off)
		}
		seen[off] = true
	}
	if _, err := g.AllocMega(0); err == nil {
		t.Fatal("exhausted backend should fail")
	}
	if g.FreeMegas(0) != 0 {
		t.Fatalf("free count = %d after exhaustion", g.FreeMegas(0))
	}
}

func TestLocalAllocPrefersLeastLoaded(t *testing.T) {
	loop := sim.NewLoop()
	bs, fs := pool(loop, 3)
	fs[0].head = 10
	fs[1].head = 90 // most headroom
	fs[2].head = 50
	l := NewLocal(NewGlobal(DefaultConfig(), caps(bs)), bs)
	a, err := l.Alloc(nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Backend != 1 {
		t.Fatalf("allocated on backend %d, want least-loaded 1", a.Backend)
	}
}

func TestLocalAllocAvoidsExcluded(t *testing.T) {
	loop := sim.NewLoop()
	bs, fs := pool(loop, 2)
	fs[0].head = 100
	fs[1].head = 1
	l := NewLocal(NewGlobal(DefaultConfig(), caps(bs)), bs)
	var avoid Avoid
	avoid.Reset(len(bs))
	avoid.Add(0)
	a, err := l.Alloc(&avoid)
	if err != nil {
		t.Fatal(err)
	}
	if a.Backend != 1 {
		t.Fatalf("replica placed on avoided backend")
	}
}

// TestAvoidGenerations exercises the generation-stamped reuse: Reset must
// empty the set without touching the backing array, and a zero-value Avoid
// must exclude nothing.
func TestAvoidGenerations(t *testing.T) {
	var a Avoid
	if a.Has(0) || a.Has(7) {
		t.Fatal("zero-value Avoid excluded a backend")
	}
	a.Reset(4)
	a.Add(2)
	if !a.Has(2) || a.Has(1) {
		t.Fatal("Add/Has wrong after first Reset")
	}
	a.Reset(4)
	if a.Has(2) {
		t.Fatal("Reset did not empty the set")
	}
	a.Add(3)
	if !a.Has(3) || a.Has(2) {
		t.Fatal("membership wrong after second generation")
	}
	// Generation wrap: stamps from the pre-wrap era must not match.
	a.gen = ^uint32(0)
	a.Add(1)
	a.Reset(4)
	if a.Has(1) {
		t.Fatal("stale stamp matched after generation wrap")
	}
}

// TestAllocSteadyStateAllocFree pins the volume-churn hot path contract:
// an Alloc/Free cycle with a reusable Avoid scratch performs zero heap
// allocations once the local pool is warm. (The old map[int]bool parameter
// forced one map allocation per call at every call site.)
func TestAllocSteadyStateAllocFree(t *testing.T) {
	loop := sim.NewLoop()
	bs, _ := pool(loop, 3)
	l := NewLocal(NewGlobal(DefaultConfig(), caps(bs)), bs)
	var avoid Avoid
	// Warm: pull one mega blob per backend into the local free lists and
	// let the free-list slices reach steady capacity.
	for i := 0; i < 64; i++ {
		avoid.Reset(len(bs))
		a, err := l.Alloc(&avoid)
		if err != nil {
			t.Fatal(err)
		}
		l.Free(a)
	}
	per := testing.AllocsPerRun(200, func() {
		avoid.Reset(len(bs))
		a, err := l.Alloc(&avoid)
		if err != nil {
			t.Fatal(err)
		}
		avoid.Add(a.Backend)
		b, err := l.Alloc(&avoid)
		if err != nil {
			t.Fatal(err)
		}
		l.Free(a)
		l.Free(b)
	})
	if per != 0 {
		t.Fatalf("Alloc/Free steady state allocates %.1f/op, want 0", per)
	}
}

func TestLocalPoolRefillsFromGlobal(t *testing.T) {
	loop := sim.NewLoop()
	bs, _ := pool(loop, 1)
	cfg := DefaultConfig()
	g := NewGlobal(cfg, caps(bs))
	l := NewLocal(g, bs)
	perMega := int(cfg.MegaBlobBytes / cfg.MicroBlobBytes)
	before := g.FreeMegas(0)
	for i := 0; i < perMega+1; i++ {
		if _, err := l.Alloc(nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := g.FreeMegas(0); got != before-2 {
		t.Fatalf("global megas = %d, want %d (second mega pulled)", got, before-2)
	}
}

func TestFileAppendReplicatesToTwoBackends(t *testing.T) {
	loop := sim.NewLoop()
	bs, fbs := pool(loop, 2)
	cfg := DefaultConfig()
	fs := NewFS(cfg, NewLocal(NewGlobal(cfg, caps(bs)), bs))
	f := fs.Create("sst-1")
	loop.Spawn("writer", func(p *sim.Proc) {
		if err := f.Append(p, 64<<10); err != nil {
			t.Errorf("append: %v", err)
		}
	})
	loop.Run()
	if len(fbs[0].ios) != 1 || len(fbs[1].ios) != 1 {
		t.Fatalf("writes per backend = %d/%d, want 1/1", len(fbs[0].ios), len(fbs[1].ios))
	}
	for _, fb := range fbs {
		if fb.ios[0].Op != nvme.OpWrite || fb.ios[0].Size != 64<<10 {
			t.Fatalf("unexpected IO %+v", fb.ios[0])
		}
	}
	if f.Size() != 64<<10 {
		t.Fatalf("size = %d", f.Size())
	}
}

func TestFileAppendWaitsForSlowestReplica(t *testing.T) {
	loop := sim.NewLoop()
	bs, _ := pool(loop, 2, 10_000, 500_000)
	cfg := DefaultConfig()
	fs := NewFS(cfg, NewLocal(NewGlobal(cfg, caps(bs)), bs))
	f := fs.Create("wal")
	var doneAt int64
	loop.Spawn("writer", func(p *sim.Proc) {
		if err := f.Append(p, 4096); err != nil {
			t.Errorf("append: %v", err)
		}
		doneAt = p.Now()
	})
	loop.Run()
	if doneAt < 500_000 {
		t.Fatalf("append completed at %d, before the slow replica (500us)", doneAt)
	}
}

func TestFileReadBalancesToLeastLoadedReplica(t *testing.T) {
	loop := sim.NewLoop()
	bs, fbs := pool(loop, 2)
	cfg := DefaultConfig()
	fs := NewFS(cfg, NewLocal(NewGlobal(cfg, caps(bs)), bs))
	f := fs.Create("sst")
	loop.Spawn("w", func(p *sim.Proc) {
		if err := f.Append(p, 256<<10); err != nil {
			t.Errorf("append: %v", err)
		}
	})
	loop.Run()
	w0, w1 := len(fbs[0].ios), len(fbs[1].ios)

	// Make backend 1 look much less loaded: reads should go there.
	fbs[0].head = 1
	fbs[1].head = 99
	loop.Spawn("r", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			if err := f.ReadAt(p, 0, 4096); err != nil {
				t.Errorf("read: %v", err)
			}
		}
	})
	loop.Run()
	r0, r1 := len(fbs[0].ios)-w0, len(fbs[1].ios)-w1
	if r1 != 8 || r0 != 0 {
		t.Fatalf("reads went %d/%d, want 0/8 (balanced to backend 1)", r0, r1)
	}

	// With balancing off, reads pin to the primary replica.
	fs.Balance = false
	loop.Spawn("r2", func(p *sim.Proc) {
		if err := f.ReadAt(p, 0, 4096); err != nil {
			t.Errorf("read: %v", err)
		}
	})
	loop.Run()
	prim := f.spans[0].replicas[0].Backend
	if got := len(fbs[prim].ios) - map[int]int{0: w0 + r0, 1: w1 + r1}[prim]; got != 1 {
		t.Fatalf("unbalanced read did not hit primary")
	}
}

func TestFileReadBounds(t *testing.T) {
	loop := sim.NewLoop()
	bs, _ := pool(loop, 2)
	cfg := DefaultConfig()
	fs := NewFS(cfg, NewLocal(NewGlobal(cfg, caps(bs)), bs))
	f := fs.Create("x")
	loop.Spawn("w", func(p *sim.Proc) {
		if err := f.Append(p, 4096); err != nil {
			t.Errorf("append: %v", err)
		}
		if err := f.ReadAt(p, 4096, 4096); err == nil {
			t.Error("read past EOF should fail")
		}
		if err := f.ReadAt(p, 1, 4096); err == nil {
			t.Error("unaligned read should fail")
		}
		if err := f.Append(p, 100); err == nil {
			t.Error("unaligned append should fail")
		}
	})
	loop.Run()
}

func TestFileDeleteFreesAndTrims(t *testing.T) {
	loop := sim.NewLoop()
	bs, fbs := pool(loop, 2)
	cfg := DefaultConfig()
	l := NewLocal(NewGlobal(cfg, caps(bs)), bs)
	fs := NewFS(cfg, l)
	f := fs.Create("tmp")
	loop.Spawn("w", func(p *sim.Proc) {
		if err := f.Append(p, int(cfg.MicroBlobBytes)); err != nil {
			t.Errorf("append: %v", err)
		}
	})
	loop.Run()
	free0 := l.FreeMicros(0) + l.FreeMicros(1)
	f.Delete()
	loop.Run()
	if got := l.FreeMicros(0) + l.FreeMicros(1); got != free0+2 {
		t.Fatalf("free micros = %d, want %d (both replicas returned)", got, free0+2)
	}
	trims := 0
	for _, fb := range fbs {
		for _, io := range fb.ios {
			if io.Op == nvme.OpTrim {
				trims++
			}
		}
	}
	if trims != 2 {
		t.Fatalf("trims = %d, want 2", trims)
	}
	if f.Size() != 0 {
		t.Fatalf("size after delete = %d", f.Size())
	}
}

func TestFileLargeAppendSpansMicroBlobs(t *testing.T) {
	loop := sim.NewLoop()
	bs, fbs := pool(loop, 2)
	cfg := DefaultConfig()
	fs := NewFS(cfg, NewLocal(NewGlobal(cfg, caps(bs)), bs))
	f := fs.Create("big")
	n := int(cfg.MicroBlobBytes)*2 + 8192
	loop.Spawn("w", func(p *sim.Proc) {
		if err := f.Append(p, n); err != nil {
			t.Errorf("append: %v", err)
		}
	})
	loop.Run()
	if len(f.spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(f.spans))
	}
	// Each backend sees 3 writes (one per span replica).
	if len(fbs[0].ios) != 3 || len(fbs[1].ios) != 3 {
		t.Fatalf("writes = %d/%d, want 3/3", len(fbs[0].ios), len(fbs[1].ios))
	}
}
