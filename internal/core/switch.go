// Package core implements the Gimbal storage switch (§3): the per-SSD
// pipeline that couples the hierarchical DRR scheduler with virtual slots
// (ingress), the delay-based congestion controller with its dual-token-
// bucket rate pacer (egress), the dynamic write-cost estimator, and the
// credit computation for the end-to-end flow control. One Switch instance
// owns one SSD and runs shared-nothing (§4.1).
package core

import (
	"gimbal/internal/core/latmon"
	"gimbal/internal/core/ratectl"
	"gimbal/internal/core/sched"
	"gimbal/internal/core/writecost"
	"gimbal/internal/nvme"
	"gimbal/internal/sim"
	"gimbal/internal/ssd"
)

// Config aggregates the §4.2 parameters of all switch components.
type Config struct {
	Latency latmon.Config
	Rate    ratectl.Config
	Cost    writecost.Config
	Sched   sched.Config

	// CostPeriod is how often the write cost is recalibrated (§3.4
	// "periodically").
	CostPeriod int64

	// DisableDynamicCost pins the write cost at worst case (ablation).
	DisableDynamicCost bool

	// Recovery configures the failure-handling extensions (fail-fast on a
	// dead device, graceful degradation on a browning-out one). The zero
	// value disables them entirely, preserving the paper-faithful behavior.
	Recovery RecoveryConfig
}

// RecoveryConfig tunes the switch's failure handling. All features are off
// at the zero value.
type RecoveryConfig struct {
	// FailFastThreshold latches the device as failed after this many
	// consecutive media errors; subsequent IOs are rejected immediately
	// with StatusDeviceFailed instead of queuing behind a dead device.
	// 0 disables fail-fast.
	FailFastThreshold int
	// FailFastProbe lets every Nth rejected IO through as a probe so a
	// device that comes back unlatches. 0 means no probing.
	FailFastProbe int

	// DegradeLatency enters graceful degradation when the device's
	// smoothed latency (either direction's monitor) sits above this for
	// DegradeTicks cost periods. The dynamic threshold (§3.2) tracks load
	// and tops out near ThreshMax, so a healthy-but-busy SSD hovers at or
	// below it; a browning-out SSD pins its EWMA far past any load-induced
	// level. While degraded, each tenant's piggybacked credit is clamped
	// to DegradedCredit so initiators stop piling deadline-doomed work
	// (and its retry storm) onto the sick SSD and shift load to healthy
	// ones via the §3.7 virtual view. 0 disables degradation.
	DegradeLatency int64
	// DegradedCredit is the per-tenant credit cap while degraded.
	DegradedCredit uint32
	// DegradeTicks is the hysteresis, in cost periods, for entering and
	// leaving degradation.
	DegradeTicks int
}

// DefaultRecoveryConfig returns the settings used by the chaos evaluation:
// latch after 8 consecutive errors, probe every 64th reject, degrade when
// smoothed device latency sits above 1.5ms for 3 cost periods, clamping
// credit to 4 slots.
func DefaultRecoveryConfig() RecoveryConfig {
	return RecoveryConfig{
		FailFastThreshold: 8,
		FailFastProbe:     64,
		DegradeLatency:    1500 * sim.Microsecond,
		DegradedCredit:    4,
		DegradeTicks:      3,
	}
}

// DefaultConfig returns the paper's DCT983 configuration.
func DefaultConfig() Config {
	return Config{
		Latency:    latmon.DefaultConfig(),
		Rate:       ratectl.DefaultConfig(),
		Cost:       writecost.DefaultConfig(),
		Sched:      sched.DefaultConfig(),
		CostPeriod: 10 * sim.Millisecond,
	}
}

// View is the per-SSD virtual view exposed to tenants (§3.7): the measured
// bandwidth headroom split by IO class plus the load signal.
type View struct {
	TargetRateBps     float64
	CompletionRateBps float64
	WriteCost         float64
	ReadShareBps      float64
	WriteShareBps     float64
	ReadEWMAUs        float64
	WriteEWMAUs       float64

	// Degraded reports the switch clamped credits because the device is
	// browning out; Failed reports the fail-fast latch is set.
	Degraded bool
	Failed   bool
}

// CostModeler reports where the write bytes of a heterogeneous device
// stack are landing: absorb is the fraction absorbed by a fast tier (cost
// 1, no amplification), nandWA the NAND side's current cumulative write
// amplification (a floor on its cost). The switch polls it each cost
// period. Only the perf ledger's tiered rig (benchmark/simrig.go) attaches
// one; no product stack has a tier.
type CostModeler interface {
	WriteCostModel() (absorb, nandWA float64)
}

// Stats is the switch's event counters: plain fields of the pipeline's own
// state, incremented in scheduler context whether or not anything observes
// the switch, and read — under the same serialization — by Switch.Stats.
type Stats struct {
	Submits     int64 // IOs dispatched to the device
	Completions int64 // device completions processed
	// PacingStalls counts pump passes that stopped for want of tokens.
	PacingStalls int64
	// Selects counts sched.DRR.Select calls: one per step of a pass, but
	// none for the first of a pass that starts from the recorded head.
	Selects     int64
	CostTicks   int64 // write-cost recalibration periods
	CostChanges int64 // periods that moved the write cost
	// AbortedIOs completed with StatusAborted at the switch (teardown or
	// late capsule); TenantTeardowns counts the teardowns.
	AbortedIOs      int64
	TenantTeardowns int64
	// Recovery: rejects while latched failed, and the latch and degrade
	// transitions.
	FailFastRejects int64
	FailLatches     int64
	FailRecoveries  int64
	DegradeEnters   int64
	DegradeExits    int64
	// Transitions counts congestion-state changes by IO class (0 read,
	// 1 write) and new state.
	Transitions [2][4]int64
}

// Switch is the Gimbal storage switch for one SSD. It implements
// nvme.Scheduler.
type Switch struct {
	// What every pass reads or writes comes first, the rate engine and the
	// cost estimator held by value beside it, so that a pass touches a few
	// adjacent cache lines instead of one per component.
	pumping  bool
	failed   bool // fail-fast latch
	degraded bool // credit clamp active

	// stall is what the last pass that stopped for want of tokens found:
	// the head IO, and coverAt, when the refill covers it at the target
	// rate and write cost that pass saw (ratectl.Engine.Admit's wait).
	// Before coverAt a pass would stop on the same IO, so entries that move
	// neither the rate, the buckets nor the cost run none (stalled). The
	// next pass starts from io instead of selecting it again (see stalled
	// for why Select would return it). Nil io: the next pass selects.
	stall struct {
		io      *nvme.IO
		coverAt int64
	}
	// head is the IO the last pass selected and did not commit: Select
	// returns it again until a Commit, and its Admit stamp stands.
	head *nvme.IO

	// timer is the pacing timer and armTimer what arms it: the clock's
	// AtMovable, resolved once (sim.AtMovableFunc), since pump moves it.
	timer    sim.Timer
	clk      sim.Scheduler
	drr      *sched.DRR
	sub      *nvme.Submitter
	rate     ratectl.Engine
	cost     writecost.Estimator
	stats    Stats
	armTimer func(t int64, fn func()) sim.Timer

	// Cached method-value closures: arming the pacing timer, the cost
	// tick, and the per-IO device completion callback; binding the method
	// at each use would allocate on the hot path.
	pumpFn     func()
	costTickFn func()
	devDoneFn  func(*nvme.IO)

	rmon, wmon latmon.Monitor
	monState   [2]latmon.State // last congestion state by IO class (0 read, 1 write)

	// obs is the attached sink for what is pushed per IO — the span
	// histograms — and the recovery event log; nil by default.
	obs *switchObs

	cfg            Config
	writesInPeriod int

	// costModel, when set, is polled each cost period to blend the write
	// cost with a fast tier's absorption (SetCostModel).
	costModel CostModeler

	// Recovery state (all zero and untouched unless cfg.Recovery enables
	// the corresponding feature, keeping the healthy path branch-cheap).
	// failed and degraded are at the top.
	consecErrs int // consecutive media errors (fail-fast)
	probeLeft  int // rejects until the next probe is let through
	sickTicks  int // cost periods with EWMA latency above DegradeLatency
	wellTicks  int // cost periods back below it while degraded
}

// New builds a switch over the device.
func New(clk sim.Scheduler, dev ssd.Device, cfg Config) *Switch {
	sw := &Switch{
		cfg:  cfg,
		clk:  clk,
		sub:  nvme.NewSubmitter(clk, dev),
		rmon: *latmon.New(cfg.Latency),
		wmon: *latmon.New(cfg.Latency),
		rate: *ratectl.New(cfg.Rate, clk.Now()),
		cost: *writecost.New(cfg.Cost),

		armTimer: sim.AtMovableFunc(clk),
	}
	sw.drr = sched.New(cfg.Sched, sw.weighted)
	sw.drr.SetClock(clk.Now)
	sw.pumpFn = sw.pump
	sw.costTickFn = sw.costTick
	sw.devDoneFn = sw.onDeviceDone
	clk.After(cfg.CostPeriod, sw.costTickFn).MarkDaemon()
	return sw
}

// Register implements nvme.Scheduler.
func (sw *Switch) Register(t *nvme.Tenant) { sw.drr.Register(t) }

// EnableRecovery switches on the failure-handling extensions after
// construction (the facade arms it when a fault plan is injected). Call
// from scheduler context before the faults fire.
func (sw *Switch) EnableRecovery(rc RecoveryConfig) { sw.cfg.Recovery = rc }

// SetCostModel attaches a per-device cost model (a fast-tier wrapper);
// the cost tick polls it and blends the write-cost estimate (see
// CostModeler). Call from scheduler context before traffic.
func (sw *Switch) SetCostModel(m CostModeler) { sw.costModel = m }

// Unregister implements nvme.TenantRemover: it reclaims the tenant's DRR
// and vslot state and returns its never-dispatched IOs for the caller to
// abort.
func (sw *Switch) Unregister(t *nvme.Tenant) []*nvme.IO {
	orphans := sw.drr.Unregister(t)
	if sw.head != nil && sw.head.Tenant == t {
		sw.head = nil // an orphan now; its owner may reuse it
	}
	switch {
	case sw.stall.io != nil && sw.stall.io.Tenant == t:
		sw.stall.io = nil // the stalled head left with t: the pass selects the next one
		sw.pump()         // and stalls on it, or cancels the timer
	case sw.drr.Queued() == 0:
		sw.timer.Cancel() // the queue emptied without a pump pass: nothing is left to pace
	}
	sw.stats.TenantTeardowns++
	sw.stats.AbortedIOs += int64(len(orphans))
	return orphans
}

// weighted returns the cost-weighted size used by the DRR and the slots
// (§3.5): write cost × size for writes, size for reads, zero for barriers.
func (sw *Switch) weighted(io *nvme.IO) int64 {
	switch io.Op {
	case nvme.OpWrite:
		return sw.cost.WeightedSize(true, io.Size)
	case nvme.OpRead:
		return int64(io.Size)
	default:
		return 0
	}
}

// Enqueue implements nvme.Scheduler: admit the IO to its tenant's priority
// queue and run the submission pump, unless the pump is stalled.
func (sw *Switch) Enqueue(io *nvme.IO) {
	if st := sw.sub.Check(io); st != nvme.StatusOK {
		io.Done(io, nvme.Completion{Status: st})
		return
	}
	if sw.failed {
		// Fail-fast: reject instead of queueing behind a dead device, but
		// periodically let a probe through so a recovered device unlatches.
		if sw.cfg.Recovery.FailFastProbe > 0 {
			sw.probeLeft--
		}
		if sw.probeLeft > 0 || sw.cfg.Recovery.FailFastProbe <= 0 {
			sw.stats.FailFastRejects++
			io.Done(io, nvme.Completion{Status: nvme.StatusDeviceFailed})
			return
		}
		sw.probeLeft = sw.cfg.Recovery.FailFastProbe
	}
	io.Arrival = sw.clk.Now()
	if !sw.drr.Enqueue(io) {
		// Tenant already unregistered (late capsule after disconnect).
		io.Done(io, nvme.Completion{Status: nvme.StatusAborted})
		sw.stats.AbortedIOs++
		return
	}
	if !sw.stalled(io.Arrival) {
		sw.pump()
	}
}

// stalled reports whether a pass at now would stop, short of tokens, on
// the head IO the last one stopped on. Nothing that could change that has
// happened since: what moves the rate or a bucket (onDeviceDone) makes the
// record stale, and what moves the write cost (costTick) drops it or runs a
// pass itself.
//
// Nor can what happened since change the head, which is why the next pass
// starts from the record's IO unless an entry dropped it. sched.DRR.Select
// is idempotent once it has found a dispatchable IO — it returns that IO
// again, granting no deficit, until a Commit — and the calls an entry makes
// between passes leave the front alone. Enqueue pushes to the back of a
// priority queue (the head tenant keeps cycling the priority its budget is
// on), and activate puts a tenant at the back of its class's active list
// and a class at the back of the ring. Complete touches only a deferred
// tenant (the head's tenant is active), which it activates or drops.
// Unregister takes a tenant off the lists. Two entries can change the head,
// and both drop the record before their pass: a cost tick, because Select
// weighs a write by the write cost and a heavier head may no longer fit its
// tenant's (or class's) deficit, and Unregister of the head's tenant.
func (sw *Switch) stalled(now int64) bool {
	return sw.stall.io != nil && now < sw.stall.coverAt
}

// pump drains the scheduler while tokens and slots allow (Algorithm 1
// Submission). The paper runs it on every request arrival and completion,
// so the system is self-clocked; here an entry that finds the pump stalled
// runs none (stalled), and the pacing timer runs the pass that admits the
// head IO. A pass leaves the pacing timer in one of two states: re-keyed
// to the refill time if it stalled on tokens, or cancelled if the queue
// drained. The timer is moved (sim.Timer.Reschedule), not cancelled on
// entry and armed again on exit, and it is armed where moving it is
// cheapest (the clock's AtMovable: on the loop's indexed side heap, so the
// pacer never touches the main event queue). What the clock observes is
// the same.
//
// One thing to know about the deadline: it is coverAt — the refill that
// reaches the head IO's bucket, spill-over included, over its shortfall,
// rounded up — but at least 1 µs after the pass, so a head IO the refill
// covers sooner is admitted by the first entry after coverAt, or by the
// timer. Only a pass moves it. Every golden has that in it.
func (sw *Switch) pump() {
	if sw.pumping {
		return // no re-entrant pumping from nested completions
	}
	sw.pumping = true
	now := sw.clk.Now()
	io := sw.stall.io // Select's answer until a Commit (see stalled)
	sw.stall.io = nil
	// Neither moves during the pass: the cost only on a cost tick, and the
	// refill is done once now is reached.
	cost := sw.cost.Cost()
	sw.rate.Refill(now, cost)
	for {
		if io == nil {
			sw.stats.Selects++
			if io = sw.drr.Select(); io == nil {
				sw.timer.Cancel()
				break
			}
		}
		if io != sw.head {
			sw.head, io.Admit = io, now // won its DRR round; any further wait is pacing
		}
		if wait, ok := sw.rate.Admit(io.Op.IsWrite(), io.Size, cost); !ok {
			// Token-limited: set the timer for when the refill covers the
			// deficit, instead of busy-polling.
			sw.stats.PacingStalls++
			sw.stall.io, sw.stall.coverAt = io, now+wait
			if wait < sim.Microsecond {
				wait = sim.Microsecond
			}
			if sw.timer.Active() {
				sw.timer = sw.timer.Reschedule(now + wait)
			} else {
				sw.timer = sw.armTimer(now+wait, sw.pumpFn)
			}
			break
		}
		sw.drr.Commit(io)
		sw.head = nil
		sw.stats.Submits++
		sw.sub.Submit(io, sw.devDoneFn)
		io = nil
	}
	sw.pumping = false
}

// onDeviceDone is the egress path: update the latency monitor, derive the
// congestion state, adjust the rate, refresh the tenant credit, send the
// completion (Algorithm 1 Completion) and run the pump unless it is
// stalled.
func (sw *Switch) onDeviceDone(io *nvme.IO) {
	sw.stats.Completions++
	now := sw.clk.Now()
	if rc := &sw.cfg.Recovery; rc.FailFastThreshold > 0 {
		if io.Failed {
			sw.consecErrs++
			if !sw.failed && sw.consecErrs >= rc.FailFastThreshold {
				sw.failed = true
				sw.probeLeft = rc.FailFastProbe
				sw.stats.FailLatches++
				sw.obs.event(now, "failfast-latch", true)
			}
		} else {
			sw.consecErrs = 0
			if sw.failed {
				sw.failed = false
				sw.stats.FailRecoveries++
				sw.obs.event(now, "failfast-latch", false)
			}
		}
	}
	lat := io.DeviceLatency()
	mon, class := &sw.rmon, 0
	if io.Op.IsWrite() {
		mon, class = &sw.wmon, 1
		sw.writesInPeriod++
	}
	state := mon.Update(lat)
	if state != sw.monState[class] {
		sw.monState[class] = state
		sw.stats.Transitions[class][state]++
	}
	if sw.rate.OnCompletion(now, io.Size, state) {
		// The refill's pace or level moved: a pass may admit. The record
		// goes stale, not away: its head stands, its cover time does not.
		sw.stall.coverAt = now
	}
	credit := sw.drr.Complete(io)
	if sw.degraded && sw.cfg.Recovery.DegradedCredit > 0 && credit > sw.cfg.Recovery.DegradedCredit {
		// Graceful degradation: advertise a clamped credit so initiators
		// steer new load toward healthy SSDs (§3.7) while existing IOs
		// still drain.
		credit = sw.cfg.Recovery.DegradedCredit
	}
	// Record the span histograms before handing the IO back: the owner may
	// recycle it the moment Done returns.
	if sw.obs != nil {
		sw.obs.onComplete(io, now)
	}
	io.Done(io, nvme.Completion{Status: nvme.CompletionStatus(io), Credit: credit})
	if !sw.stalled(now) {
		sw.pump()
	}
}

// costTick recalibrates the write cost once per period (§3.4): the cost
// decreases only when writes completed during the period and their EWMA
// latency sat below the minimum threshold (served from the SSD write
// buffer); it increases toward worst case whenever write latency is
// elevated.
func (sw *Switch) costTick() {
	defer func() {
		sw.clk.After(sw.cfg.CostPeriod, sw.costTickFn).MarkDaemon()
	}()
	sw.degradeTick()
	if sw.cfg.DisableDynamicCost {
		return
	}
	sw.stats.CostTicks++
	if sw.costModel != nil {
		// Poll the device stack's cost model before the zero-write early
		// return: the tier's absorb fraction must refresh even through
		// read-only periods. The mix may move the cost, which no stalled
		// pass has seen.
		sw.cost.SetTierMix(sw.costModel.WriteCostModel())
		sw.stall.io = nil // and the head with it (see stalled)
	}
	if sw.writesInPeriod == 0 || !sw.wmon.Initialized() {
		return
	}
	sw.writesInPeriod = 0
	calm := sw.wmon.EWMA() < float64(sw.cfg.Latency.ThreshMin)
	before := sw.cost.Cost()
	sw.cost.Update(calm)
	if sw.cost.Cost() != before {
		sw.stats.CostChanges++
	}
	// A cost change shifts the DRR weighting, which may unblock work or
	// move the head: the pass selects afresh.
	sw.stall.io = nil
	sw.pump()
}

// degradeTick runs once per cost period and drives the degradation
// hysteresis: smoothed device latency pinned past DegradeLatency (far
// beyond where the dynamic threshold would sit under mere load) enters
// the credit clamp; a sustained return below it leaves.
func (sw *Switch) degradeTick() {
	rc := &sw.cfg.Recovery
	if rc.DegradeLatency <= 0 {
		return
	}
	lat := float64(0)
	if sw.rmon.Initialized() {
		lat = sw.rmon.EWMA()
	}
	if sw.wmon.Initialized() && sw.wmon.EWMA() > lat {
		lat = sw.wmon.EWMA()
	}
	sick := lat > float64(rc.DegradeLatency)
	if sick {
		sw.sickTicks++
		sw.wellTicks = 0
	} else {
		sw.wellTicks++
		sw.sickTicks = 0
	}
	ticks := rc.DegradeTicks
	if ticks < 1 {
		ticks = 1
	}
	if !sw.degraded && sw.sickTicks >= ticks {
		sw.degraded = true
		sw.stats.DegradeEnters++
		sw.obs.event(sw.clk.Now(), "degrade", true)
	} else if sw.degraded && sw.wellTicks >= ticks {
		sw.degraded = false
		sw.stats.DegradeExits++
		sw.obs.event(sw.clk.Now(), "degrade", false)
	}
}

// Degraded reports whether the credit clamp is active.
func (sw *Switch) Degraded() bool { return sw.degraded }

// FailedFast reports whether the fail-fast latch is set.
func (sw *Switch) FailedFast() bool { return sw.failed }

// View implements the per-SSD virtual view (§3.7).
func (sw *Switch) View() View {
	c := sw.cost.Cost()
	tr := sw.rate.TargetRate()
	return View{
		TargetRateBps:     tr,
		CompletionRateBps: sw.rate.CompletionRate(),
		WriteCost:         c,
		ReadShareBps:      tr * c / (1 + c),
		WriteShareBps:     tr * 1 / (1 + c),
		ReadEWMAUs:        sw.rmon.EWMA() / 1e3,
		WriteEWMAUs:       sw.wmon.EWMA() / 1e3,
		Degraded:          sw.degraded,
		Failed:            sw.failed,
	}
}

// Stats returns the switch's event counters. Call in scheduler context.
func (sw *Switch) Stats() Stats { return sw.stats }

// Credit returns the current credit of a tenant (target-side view). An
// unregistered (disconnected) tenant holds no credit.
func (sw *Switch) Credit(t *nvme.Tenant) uint32 {
	slots := sw.drr.Slots(t)
	if slots == nil {
		return 0
	}
	return slots.Credit()
}

// Monitors exposes the read and write latency monitors (Fig 17/18 traces).
func (sw *Switch) Monitors() (read, write *latmon.Monitor) { return &sw.rmon, &sw.wmon }

// Rate exposes the rate engine (for harness instrumentation).
func (sw *Switch) Rate() *ratectl.Engine { return &sw.rate }

// WriteCost returns the current write-cost estimate.
func (sw *Switch) WriteCost() float64 { return sw.cost.Cost() }

// DRR exposes the scheduler for diagnostics.
func (sw *Switch) DRR() *sched.DRR { return sw.drr }
