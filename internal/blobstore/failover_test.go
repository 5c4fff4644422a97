package blobstore

import (
	"testing"

	"gimbal/internal/nvme"
	"gimbal/internal/sim"
)

// flakyBackend fails reads whose offset is in badOffsets (or everything
// when failAll), completing with a media-error status.
type flakyBackend struct {
	loop    *sim.Loop
	failAll bool
	fails   int64
	ok      int64
}

func (f *flakyBackend) Submit(io *nvme.IO) {
	st := nvme.StatusOK
	if f.failAll && io.Op == nvme.OpRead {
		st = nvme.StatusInternalErr
		f.fails++
	} else {
		f.ok++
	}
	f.loop.After(10_000, func() { io.Done(io, nvme.Completion{Status: st}) })
}

func flakyPool(loop *sim.Loop) ([]*Backend, []*flakyBackend) {
	var bs []*Backend
	var fs []*flakyBackend
	for i := 0; i < 2; i++ {
		fb := &flakyBackend{loop: loop}
		fs = append(fs, fb)
		bs = append(bs, &Backend{
			Target:   fb,
			Headroom: func() int { return 10 },
			Capacity: 1 << 30,
		})
	}
	return bs, fs
}

func TestReadFailsOverToSurvivingReplica(t *testing.T) {
	loop := sim.NewLoop()
	bs, fbs := flakyPool(loop)
	cfg := DefaultConfig()
	fs := NewFS(cfg, NewLocal(NewGlobal(cfg, caps(bs)), bs))
	f := fs.Create("sst")
	loop.Spawn("io", func(p *sim.Proc) {
		if err := f.Append(p, 64<<10); err != nil {
			t.Errorf("append: %v", err)
			return
		}
		// Kill reads on backend 0: every read must transparently land on
		// backend 1.
		fbs[0].failAll = true
		for i := 0; i < 10; i++ {
			if err := f.ReadAt(p, 0, 4096); err != nil {
				t.Errorf("read %d failed despite surviving replica: %v", i, err)
			}
		}
	})
	loop.Run()
	if fs.ReadFailures != 0 {
		t.Fatalf("ReadFailures = %d, want 0 (failover should recover)", fs.ReadFailures)
	}
	if fs.ReadFailovers == 0 {
		t.Fatal("no failovers recorded despite a dead replica")
	}
}

func TestReadFailsWhenAllReplicasDead(t *testing.T) {
	loop := sim.NewLoop()
	bs, fbs := flakyPool(loop)
	cfg := DefaultConfig()
	fs := NewFS(cfg, NewLocal(NewGlobal(cfg, caps(bs)), bs))
	f := fs.Create("sst")
	loop.Spawn("io", func(p *sim.Proc) {
		if err := f.Append(p, 4096); err != nil {
			t.Errorf("append: %v", err)
			return
		}
		fbs[0].failAll = true
		fbs[1].failAll = true
		if err := f.ReadAt(p, 0, 4096); err == nil {
			t.Error("read succeeded with every replica dead")
		}
	})
	loop.Run()
	if fs.ReadFailures == 0 {
		t.Fatal("all-replica failure not counted")
	}
}

func TestWriteDegradesButSucceedsWithOneReplica(t *testing.T) {
	loop := sim.NewLoop()
	// Backend 0 fails all WRITES; backend 1 healthy.
	var bs []*Backend
	wf := &writeFailBackend{loop: loop, failWrites: true}
	ok := &writeFailBackend{loop: loop}
	for _, b := range []*writeFailBackend{wf, ok} {
		b := b
		bs = append(bs, &Backend{Target: b, Headroom: func() int { return 10 }, Capacity: 1 << 30})
	}
	cfg := DefaultConfig()
	fs := NewFS(cfg, NewLocal(NewGlobal(cfg, caps(bs)), bs))
	f := fs.Create("wal")
	loop.Spawn("io", func(p *sim.Proc) {
		if err := f.Append(p, 4096); err != nil {
			t.Errorf("append should survive one dead replica: %v", err)
		}
	})
	loop.Run()
	if fs.DegradedWrites != 1 {
		t.Fatalf("DegradedWrites = %d, want 1", fs.DegradedWrites)
	}
}

type writeFailBackend struct {
	loop       *sim.Loop
	failWrites bool
}

func (w *writeFailBackend) Submit(io *nvme.IO) {
	st := nvme.StatusOK
	if w.failWrites && io.Op == nvme.OpWrite {
		st = nvme.StatusInternalErr
	}
	w.loop.After(10_000, func() { io.Done(io, nvme.Completion{Status: st}) })
}

func TestHealthyBackendsEndToEnd(t *testing.T) {
	// Media errors reach the nvme submitter as failed completions through
	// the fault layer (covered in the scheduler tests); this test checks
	// the blobstore sees clean statuses from healthy fakes (regression
	// guard for the status plumbing).
	loop := sim.NewLoop()
	bs, fbs := flakyPool(loop)
	cfg := DefaultConfig()
	fs := NewFS(cfg, NewLocal(NewGlobal(cfg, caps(bs)), bs))
	f := fs.Create("x")
	loop.Spawn("io", func(p *sim.Proc) {
		if err := f.Append(p, 4096); err != nil {
			t.Errorf("append: %v", err)
		}
		if err := f.ReadAt(p, 0, 4096); err != nil {
			t.Errorf("read: %v", err)
		}
	})
	loop.Run()
	if fbs[0].ok+fbs[1].ok == 0 {
		t.Fatal("no IO reached the backends")
	}
	if fs.ReadFailovers != 0 || fs.DegradedWrites != 0 {
		t.Fatalf("healthy run recorded failures: %+v", fs)
	}
}
