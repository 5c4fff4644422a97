// Package reflex reimplements the ReFlex [Klimovic et al., ASPLOS'17]
// request-cost scheduler as ported to the SmartNIC JBOF in §5.1 of the
// Gimbal paper: a token-based scheduler whose device capacity and per-IO
// costs come from an offline-profiled model. The token unit is "one 4KB
// random read"; a request of size s costs s/4KB tokens, writes cost a fixed
// pre-calibrated multiple. Tokens replenish at the profiled device rate and
// tenants draw them in deficit-round-robin order.
//
// The model is static: calibrated once (against the worst-case/fragmented
// device, which is why it "only works on Fragment-SSD" — §5.3), it
// overestimates the cost of writes and large IOs on a clean device and
// under-utilizes it, and it has no flow control, so ingress queues are
// unbounded and tail latency inflates under consolidation.
package reflex

import (
	"gimbal/internal/nvme"
	"gimbal/internal/sim"
	"gimbal/internal/ssd"
)

// Config is the offline-calibrated cost model.
type Config struct {
	// TokenRate is the profiled device capacity in 4KB-read tokens/sec.
	TokenRate float64
	// WriteFactor is the calibrated write:read cost ratio (from the
	// worst-case profile, like Gimbal's write_cost_worst).
	WriteFactor float64
	// Burst is the token bucket depth; must cover the largest request.
	Burst float64
}

// DefaultConfig returns a model profiled against the DCT983 device model:
// ~410K 4KB-read tokens/s and a worst-case write factor of 9. The burst
// must cover the costliest single request (a 128KB write = 32 × 9 = 288
// tokens).
func DefaultConfig() Config {
	return Config{TokenRate: 410_000, WriteFactor: 9, Burst: 576}
}

type tenant struct {
	queue   nvme.FIFO[*nvme.IO]
	deficit float64
	// listed: on the active round-robin; gone: unregistered, and dropped
	// when the round reaches it.
	listed, gone bool
}

// Scheduler implements nvme.Scheduler.
type Scheduler struct {
	cfg Config
	clk sim.Scheduler
	sub *nvme.Submitter

	tenants  map[*nvme.Tenant]*tenant
	active   nvme.FIFO[*tenant] // DRR round order, front first
	tokens   float64
	last     int64
	timer    sim.Timer
	armTimer func(t int64, fn func()) sim.Timer // sim.AtMovableFunc(clk): pump moves the timer
	pumpFn   func()                             // cached for timer re-arming without a per-arm closure
	onDoneFn func(*nvme.IO)
	quantum  float64

	Submits     int64
	Completions int64
}

// New returns a ReFlex scheduler over dev.
func New(clk sim.Scheduler, dev ssd.Device, cfg Config) *Scheduler {
	s := &Scheduler{
		cfg:     cfg,
		clk:     clk,
		sub:     nvme.NewSubmitter(clk, dev),
		tenants: make(map[*nvme.Tenant]*tenant),
		tokens:  cfg.Burst,
		last:    clk.Now(),
		quantum: 32, // one 128KB request per round

		armTimer: sim.AtMovableFunc(clk),
	}
	s.pumpFn = s.pump
	s.onDoneFn = s.onDone
	return s
}

// Register implements nvme.Scheduler.
func (s *Scheduler) Register(t *nvme.Tenant) {
	if _, ok := s.tenants[t]; !ok {
		s.tenants[t] = &tenant{}
	}
}

// Unregister implements nvme.TenantRemover: drop the tenant's queue and
// round-robin state, returning undispatched IOs for the caller to abort.
func (s *Scheduler) Unregister(t *nvme.Tenant) []*nvme.IO {
	ts, ok := s.tenants[t]
	if !ok {
		return nil
	}
	var orphans []*nvme.IO
	for ts.queue.Len() > 0 {
		orphans = append(orphans, ts.queue.Pop())
	}
	ts.gone = true
	delete(s.tenants, t)
	return orphans
}

// cost returns the request's token cost under the offline model.
func (s *Scheduler) cost(io *nvme.IO) float64 {
	pages := float64((io.Size + 4095) / 4096)
	if io.Op.IsWrite() {
		return pages * s.cfg.WriteFactor
	}
	if io.Op == nvme.OpRead {
		return pages
	}
	return 0 // flush/trim are not modeled by ReFlex
}

// Enqueue implements nvme.Scheduler.
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
	ts.queue.Push(io)
	if !ts.listed {
		ts.listed = true
		s.active.Push(ts)
	}
	s.pump()
}

func (s *Scheduler) refill() {
	now := s.clk.Now()
	if dt := now - s.last; dt > 0 {
		s.tokens += s.cfg.TokenRate * float64(dt) / 1e9
		if s.tokens > s.cfg.Burst {
			s.tokens = s.cfg.Burst
		}
		s.last = now
	}
}

func (s *Scheduler) pump() {
	s.refill()
	for s.active.Len() > 0 {
		ts := s.active.Front()
		if ts.gone {
			s.active.Pop()
			continue
		}
		if ts.queue.Len() == 0 {
			s.active.Pop()
			ts.listed = false
			ts.deficit = 0
			continue
		}
		io := ts.queue.Front()
		c := s.cost(io)
		if c > s.cfg.Burst {
			// A request costlier than the bucket capacity could never be
			// admitted; charge the whole bucket instead of wedging.
			c = s.cfg.Burst
		}
		if ts.deficit < c {
			ts.deficit += s.quantum
			s.active.Push(s.active.Pop())
			continue
		}
		if s.tokens < c {
			// Set the timer for when the bucket covers the cost: move it
			// if a previous pass left it pending (see core.Switch.pump).
			wait := int64((c - s.tokens) / s.cfg.TokenRate * 1e9)
			if wait < sim.Microsecond {
				wait = sim.Microsecond
			}
			when := s.clk.Now() + wait
			if s.timer.Active() {
				s.timer = s.timer.Reschedule(when)
			} else {
				s.timer = s.armTimer(when, s.pumpFn)
			}
			return
		}
		s.tokens -= c
		ts.deficit -= c
		ts.queue.Pop()
		s.Submits++
		// Admitted on dispatch: every wait, tokens included, is queue.
		io.Admit = s.clk.Now()
		s.sub.Submit(io, s.onDoneFn)
	}
	s.timer.Cancel()
}

func (s *Scheduler) onDone(io *nvme.IO) {
	s.Completions++
	io.Done(io, nvme.Completion{Status: nvme.CompletionStatus(io)})
	s.pump()
}
