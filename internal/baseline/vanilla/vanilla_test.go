package vanilla

import (
	"testing"

	"gimbal/internal/fault"
	"gimbal/internal/nvme"
	"gimbal/internal/sim"
	"gimbal/internal/ssd"
)

func TestPassThroughFIFO(t *testing.T) {
	loop := sim.NewLoop()
	dev := ssd.NewNull(loop, 1<<30, 1000)
	s := New(loop, dev)
	tn := nvme.NewTenant(0, "t")
	s.Register(tn)
	var order []int64
	for i := 0; i < 5; i++ {
		off := int64(i) * 4096
		s.Enqueue(&nvme.IO{Op: nvme.OpRead, Offset: off, Size: 4096, Tenant: tn,
			Done: func(io *nvme.IO, cpl nvme.Completion) {
				if cpl.Status != nvme.StatusOK {
					t.Errorf("status %v", cpl.Status)
				}
				order = append(order, io.Offset)
			}})
	}
	loop.Run()
	for i, off := range order {
		if off != int64(i)*4096 {
			t.Fatalf("completion order broken: %v", order)
		}
	}
	if s.Submits != 5 || s.Completions != 5 {
		t.Fatalf("counters %d/%d", s.Submits, s.Completions)
	}
}

func TestRejectsMalformed(t *testing.T) {
	loop := sim.NewLoop()
	s := New(loop, ssd.NewNull(loop, 1<<30, 0))
	var st nvme.Status
	s.Enqueue(&nvme.IO{Op: nvme.OpRead, Offset: 3, Size: 4096,
		Done: func(_ *nvme.IO, cpl nvme.Completion) { st = cpl.Status }})
	if st != nvme.StatusInvalidLBA {
		t.Fatalf("status = %v", st)
	}
}

func TestPropagatesMediaErrors(t *testing.T) {
	loop := sim.NewLoop()
	dev := fault.Wrap(loop, ssd.NewNull(loop, 1<<30, 100))
	dev.SetFailed(true) // every IO bounces with a media error
	s := New(loop, dev)
	tn := nvme.NewTenant(0, "t")
	s.Register(tn)
	var st nvme.Status
	s.Enqueue(&nvme.IO{Op: nvme.OpRead, Offset: 0, Size: 4096, Tenant: tn,
		Done: func(_ *nvme.IO, cpl nvme.Completion) { st = cpl.Status }})
	loop.Run()
	if st != nvme.StatusInternalErr {
		t.Fatalf("media error not propagated: %v", st)
	}
	if dev.FailedIOs != 1 {
		t.Fatalf("fault layer failed %d IOs, want 1", dev.FailedIOs)
	}
}
