// Package flashfq reimplements FlashFQ [Shen & Park, ATC'13] as ported in
// §5.1 of the Gimbal paper: start-time fair queueing with throttled
// dispatch — SFQ(D) — using a linear per-IO cost model that does not
// distinguish reads from writes. Each request receives start/finish virtual
// tags at arrival; the dispatcher releases the request with the minimum
// start tag whenever fewer than D IOs are outstanding at the device.
//
// It is work-conserving with no flow control: with enough offered load it
// keeps the device queues full, so it achieves high utilization (Fig 6)
// while tail latency inflates, and its size-linear equal-cost model makes
// read and write streams converge to equal byte shares regardless of their
// true device cost (Fig 7e/f).
package flashfq

import (
	"gimbal/internal/nvme"
	"gimbal/internal/sim"
	"gimbal/internal/ssd"
)

// Config holds the SFQ(D) parameters.
type Config struct {
	// Depth is D: the throttled dispatch bound on outstanding device IOs.
	Depth int
	// CostBase and CostPerByte define the linear request cost model
	// (virtual-time units); both IO directions use the same line.
	CostBase    float64
	CostPerByte float64
}

// DefaultConfig matches the port calibrated for the DCT983 model: D=64 and
// cost dominated by size.
func DefaultConfig() Config {
	return Config{Depth: 64, CostBase: 4096, CostPerByte: 1}
}

type tenant struct {
	queue      nvme.FIFO[tagged]
	lastFinish float64
}

// tagged is a queued request with its SFQ start tag (its finish tag lives
// on only as the tenant's lastFinish).
type tagged struct {
	io    *nvme.IO
	start float64
}

// Scheduler implements nvme.Scheduler.
type Scheduler struct {
	cfg Config
	clk sim.Scheduler
	sub *nvme.Submitter

	tenants map[*nvme.Tenant]*tenant
	// order lists tenants by registration so dispatch ties break
	// deterministically (map iteration order is randomized).
	order       []*tenant
	vtime       float64 // start tag of the most recently dispatched request
	outstanding int
	onDoneFn    func(*nvme.IO) // cached to avoid a method-value alloc per submit

	Submits     int64
	Completions int64
}

// New returns a FlashFQ scheduler over dev.
func New(clk sim.Scheduler, dev ssd.Device, cfg Config) *Scheduler {
	s := &Scheduler{
		cfg:     cfg,
		clk:     clk,
		sub:     nvme.NewSubmitter(clk, dev),
		tenants: make(map[*nvme.Tenant]*tenant),
	}
	s.onDoneFn = s.onDone
	return s
}

// Register implements nvme.Scheduler.
func (s *Scheduler) Register(t *nvme.Tenant) {
	if _, ok := s.tenants[t]; !ok {
		ts := &tenant{}
		s.tenants[t] = ts
		s.order = append(s.order, ts)
	}
}

// Unregister implements nvme.TenantRemover: drop the tenant's queue and
// virtual-time state, returning undispatched IOs for the caller to abort.
func (s *Scheduler) Unregister(t *nvme.Tenant) []*nvme.IO {
	ts, ok := s.tenants[t]
	if !ok {
		return nil
	}
	var orphans []*nvme.IO
	for ts.queue.Len() > 0 {
		orphans = append(orphans, ts.queue.Pop().io)
	}
	delete(s.tenants, t)
	for i, x := range s.order {
		if x == ts {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	return orphans
}

func (s *Scheduler) cost(io *nvme.IO) float64 {
	return s.cfg.CostBase + s.cfg.CostPerByte*float64(io.Size)
}

// Enqueue implements nvme.Scheduler: tag the request with SFQ virtual
// times and try to dispatch.
func (s *Scheduler) Enqueue(io *nvme.IO) {
	if st := s.sub.Check(io); st != nvme.StatusOK {
		io.Done(io, nvme.Completion{Status: st})
		return
	}
	io.Arrival = s.clk.Now()
	ts := s.tenants[io.Tenant]
	if ts == nil {
		// Late capsule after the tenant's session disconnected.
		io.Done(io, nvme.Completion{Status: nvme.StatusAborted})
		return
	}
	start := ts.lastFinish
	if s.vtime > start {
		start = s.vtime
	}
	weight := float64(io.Tenant.Weight)
	if weight <= 0 {
		weight = 1
	}
	finish := start + s.cost(io)/weight
	ts.lastFinish = finish
	ts.queue.Push(tagged{io, start})
	s.dispatch()
}

// dispatch releases min-start-tag requests while under the depth bound.
func (s *Scheduler) dispatch() {
	for s.outstanding < s.cfg.Depth {
		var best *tenant
		for _, ts := range s.order {
			if ts.queue.Len() == 0 {
				continue
			}
			if best == nil ||
				ts.queue.Front().start < best.queue.Front().start {
				best = ts
			}
		}
		if best == nil {
			return
		}
		next := best.queue.Pop()
		io := next.io
		s.vtime = next.start
		s.outstanding++
		s.Submits++
		io.Admit = s.clk.Now() // admitted on dispatch: every wait is queue
		s.sub.Submit(io, s.onDoneFn)
	}
}

func (s *Scheduler) onDone(io *nvme.IO) {
	s.outstanding--
	s.Completions++
	io.Done(io, nvme.Completion{Status: nvme.CompletionStatus(io)})
	s.dispatch()
}
