package workload

import (
	"sort"

	"gimbal/internal/nvme"
	"gimbal/internal/sim"
	"gimbal/internal/stats"
)

// ScenarioConfig describes a population-scale open-loop workload: a large
// registered tenant population with heavy-tailed (Zipf) activity, Poisson
// arrivals, and tenant join/leave churn. It is
// the load shape ROADMAP item 4 calls for — the closed-loop Worker drives
// one stream hard; a Scenario drives a hundred thousand streams lightly.
type ScenarioConfig struct {
	Tenants int     // registered population (slots; churn replaces occupants)
	Theta   float64 // Zipf skew of per-tenant activity (YCSB default 0.99)

	RateIOPS float64 // mean offered load across the whole population

	ChurnPerSec float64 // tenant replacements per second (0 = static)

	IOSize    int
	ReadRatio float64 // 1 = read-only
	Span      int64   // offsets drawn uniformly from [0, Span)
}

// maxInflight sheds arrivals beyond this many outstanding IOs: an open-loop
// generator must bound its memory when the target is saturated.
const maxInflight = 4096

// DefaultScenarioConfig returns a 4KB read-mostly population at Zipf 0.99.
func DefaultScenarioConfig() ScenarioConfig {
	return ScenarioConfig{
		Tenants:   1000,
		Theta:     0.99,
		RateIOPS:  50_000,
		IOSize:    4096,
		ReadRatio: 0.9,
	}
}

// ScenarioSched is the scheduler surface a Scenario drives: registration,
// enqueue, and (when churn is configured) teardown.
type ScenarioSched interface {
	nvme.Scheduler
	nvme.TenantRemover
}

// Scenario drives a ScenarioConfig against a scheduler inside a simulation
// loop. All randomness flows through one sim.RNG, so runs are seed-
// deterministic; the per-IO path allocates nothing after warmup (IO
// freelist + cached closures, the Worker pattern).
type Scenario struct {
	loop  *sim.Loop
	rng   *sim.RNG
	cfg   ScenarioConfig
	sched ScenarioSched
	zipf  *Zipf

	tenants []*nvme.Tenant // slot -> current occupant
	idSlot  []int32        // tenant ID -> slot (IDs are scenario-issued, dense)
	nextID  int

	stopAt   int64
	inflight int

	// Per-slot accounting for population-wide fairness: latency sums and
	// counts survive churn (the slot's story, not the occupant's).
	latSum []int64
	latCnt []int64

	// Population-wide results.
	Lat       *stats.Histogram
	Completed int64
	Shed      int64
	Errored   int64 // non-OK completions (aborts from churn teardown, ...)
	Churned   int64 // tenant replacements performed

	// OnRegister, if set, observes every tenant joining the population
	// (initial registration and churn replacements) — per-tenant
	// instrument creation lives here.
	OnRegister func(t *nvme.Tenant)
	// OnDone, if set, observes every completion.
	OnDone func(io *nvme.IO, cpl nvme.Completion)

	arriveFn func()
	churnFn  func()
	onDoneFn func(io *nvme.IO, cpl nvme.Completion)
	ioFree   []*nvme.IO
}

// NewScenario registers the initial population and returns the scenario
// ready to Start. The scheduler must already be wired to a device.
func NewScenario(loop *sim.Loop, rng *sim.RNG, cfg ScenarioConfig, sched ScenarioSched) *Scenario {
	if cfg.Tenants <= 0 || cfg.IOSize <= 0 || cfg.Span <= 0 || cfg.RateIOPS <= 0 {
		panic("workload: scenario missing tenants/size/span/rate")
	}
	s := &Scenario{
		loop:  loop,
		rng:   rng,
		cfg:   cfg,
		sched: sched,
		zipf:  NewZipf(rng, uint64(cfg.Tenants), cfg.Theta),
		Lat:   stats.NewHistogram(),
	}
	s.tenants = make([]*nvme.Tenant, cfg.Tenants)
	s.latSum = make([]int64, cfg.Tenants)
	s.latCnt = make([]int64, cfg.Tenants)
	s.arriveFn = s.arrive
	s.churnFn = s.churn
	s.onDoneFn = s.onDone
	return s
}

func (s *Scenario) newTenant(slot int) *nvme.Tenant {
	t := nvme.NewTenant(s.nextID, "pop")
	s.idSlot = append(s.idSlot, int32(slot))
	s.nextID++
	if s.OnRegister != nil {
		s.OnRegister(t)
	}
	return t
}

// Start registers the population and schedules the arrival (and churn)
// processes until stopAt. Hooks (OnRegister, OnDone) must be set before.
func (s *Scenario) Start(stopAt int64) {
	for i := range s.tenants {
		if s.tenants[i] == nil {
			s.tenants[i] = s.newTenant(i)
			s.sched.Register(s.tenants[i])
		}
	}
	s.stopAt = stopAt
	s.loop.At(s.loop.Now()+s.nextArrival(), s.arriveFn)
	if s.cfg.ChurnPerSec > 0 {
		s.loop.At(s.loop.Now()+s.nextChurn(), s.churnFn)
	}
}

// nextArrival samples the next Poisson interarrival in ns.
func (s *Scenario) nextArrival() int64 {
	dt := s.rng.Exp(1 / (s.cfg.RateIOPS / 1e9))
	if dt < 1 {
		dt = 1
	}
	return int64(dt)
}

func (s *Scenario) nextChurn() int64 {
	dt := s.rng.Exp(1e9 / s.cfg.ChurnPerSec)
	if dt < 1 {
		dt = 1
	}
	return int64(dt)
}

// arrive submits one IO for a Zipf-chosen tenant and reschedules itself.
func (s *Scenario) arrive() {
	now := s.loop.Now()
	if now >= s.stopAt {
		return
	}
	s.loop.At(now+s.nextArrival(), s.arriveFn)
	if s.inflight >= maxInflight {
		s.Shed++
		return
	}
	slot := int(s.zipf.ScatteredNext())
	t := s.tenants[slot]

	op := nvme.OpRead
	if s.cfg.ReadRatio < 1 && (s.cfg.ReadRatio == 0 || s.rng.Float64() >= s.cfg.ReadRatio) {
		op = nvme.OpWrite
	}
	pages := s.cfg.Span / int64(s.cfg.IOSize)
	off := s.rng.Int63n(pages) * int64(s.cfg.IOSize)

	var io *nvme.IO
	if n := len(s.ioFree); n > 0 {
		io = s.ioFree[n-1]
		s.ioFree = s.ioFree[:n-1]
		*io = nvme.IO{}
	} else {
		io = &nvme.IO{}
	}
	io.Op = op
	io.Offset = off
	io.Size = s.cfg.IOSize
	io.Priority = nvme.PriorityNormal
	io.Tenant = t
	io.Issued = now
	io.Done = s.onDoneFn
	s.inflight++
	s.sched.Enqueue(io)
}

// churn replaces one uniformly chosen slot's tenant: the occupant is
// unregistered (queued IOs abort through the normal completion path,
// exactly like a session teardown) and a fresh tenant takes the slot.
func (s *Scenario) churn() {
	now := s.loop.Now()
	if now >= s.stopAt {
		return
	}
	s.loop.At(now+s.nextChurn(), s.churnFn)
	slot := s.rng.Intn(len(s.tenants))
	old := s.tenants[slot]
	orphans := s.sched.Unregister(old)
	for _, io := range orphans {
		io.Done(io, nvme.Completion{Status: nvme.StatusAborted})
	}
	s.tenants[slot] = s.newTenant(slot)
	s.sched.Register(s.tenants[slot])
	s.Churned++
}

func (s *Scenario) onDone(io *nvme.IO, cpl nvme.Completion) {
	s.inflight--
	slot := s.idSlot[io.Tenant.ID]
	if cpl.Status == nvme.StatusOK {
		lat := s.loop.Now() - io.Issued
		s.Lat.Record(lat)
		s.latSum[slot] += lat
		s.latCnt[slot]++
		s.Completed++
	} else {
		s.Errored++
	}
	if s.OnDone != nil {
		s.OnDone(io, cpl)
	}
	s.ioFree = append(s.ioFree, io)
}

// Inflight returns the number of outstanding IOs.
func (s *Scenario) Inflight() int { return s.inflight }

// ResetStats clears measurement state (end of warmup). Slot latency
// accounting restarts too, so fairness reflects the measured window.
func (s *Scenario) ResetStats() {
	s.Lat.Reset()
	s.Completed, s.Shed, s.Errored, s.Churned = 0, 0, 0, 0
	for i := range s.latSum {
		s.latSum[i], s.latCnt[i] = 0, 0
	}
}

// Fairness summarizes the spread of per-tenant-slot mean latencies across
// every slot that completed at least one IO in the window: the p50 and
// p99.9 slot means and their ratio. A fair scheduler keeps the ratio small
// even when the population is heavy-tailed; a scheduler whose cost scales
// with the population pushes the tail out.
type Fairness struct {
	SlotsMeasured int
	MeanP50       int64
	MeanP999      int64
	Ratio         float64
}

// Fairness computes the population fairness summary.
func (s *Scenario) Fairness() Fairness {
	means := make([]int64, 0, len(s.latCnt))
	for i, c := range s.latCnt {
		if c > 0 {
			means = append(means, s.latSum[i]/c)
		}
	}
	if len(means) == 0 {
		return Fairness{}
	}
	sort.Slice(means, func(i, j int) bool { return means[i] < means[j] })
	q := func(p float64) int64 {
		idx := int(p * float64(len(means)-1))
		return means[idx]
	}
	f := Fairness{
		SlotsMeasured: len(means),
		MeanP50:       q(0.50),
		MeanP999:      q(0.999),
	}
	if f.MeanP50 > 0 {
		f.Ratio = float64(f.MeanP999) / float64(f.MeanP50)
	}
	return f
}
