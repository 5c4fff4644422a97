// Package vanilla is the pass-through target used as the "Vanilla SPDK"
// reference (§5.6 Fig 13, Table 1): no scheduling, no cost model, no flow
// control — every IO goes straight to the device in arrival order.
package vanilla

import (
	"gimbal/internal/nvme"
	"gimbal/internal/sim"
	"gimbal/internal/ssd"
)

// Scheduler implements nvme.Scheduler with FIFO pass-through.
type Scheduler struct {
	sub *nvme.Submitter

	// doneFn is the completion callback, bound once so Enqueue builds no
	// per-IO closure (the submit path stays allocation-free).
	doneFn func(*nvme.IO)

	Submits     int64
	Completions int64
}

// New returns a pass-through scheduler over dev.
func New(clk sim.Scheduler, dev ssd.Device) *Scheduler {
	s := &Scheduler{sub: nvme.NewSubmitter(clk, dev)}
	s.doneFn = s.complete
	return s
}

func (s *Scheduler) complete(io *nvme.IO) {
	s.Completions++
	io.Done(io, nvme.Completion{Status: nvme.CompletionStatus(io)})
}

// Register implements nvme.Scheduler (no per-tenant state).
func (s *Scheduler) Register(t *nvme.Tenant) {}

// Unregister implements nvme.TenantRemover: pass-through holds no queues,
// so nothing is orphaned — in-flight IOs complete through the device.
func (s *Scheduler) Unregister(t *nvme.Tenant) []*nvme.IO { return nil }

// Enqueue implements nvme.Scheduler.
func (s *Scheduler) Enqueue(io *nvme.IO) {
	if st := s.sub.Check(io); st != nvme.StatusOK {
		io.Done(io, nvme.Completion{Status: st})
		return
	}
	// Pass-through admits on arrival: the IO's queue and pacing phases
	// are zero.
	now := s.sub.Sched.Now()
	io.Arrival, io.Admit = now, now
	s.Submits++
	s.sub.Submit(io, s.doneFn)
}
