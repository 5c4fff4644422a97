package fault

import (
	"fmt"
	"sync/atomic"

	"gimbal/internal/sim"
)

// Engine arms a Plan onto a running deployment: it owns the fault layer of
// every device and routes events it cannot apply itself (die stalls need
// the concrete SSD; fabric faults live in the session layer above this
// package) through caller-provided hooks. An SSD event runs on the clock
// its device was wrapped with, so one engine serves a sharded stack (each
// device mutated only from its own shard); fabric events run on the
// engine's clock. Timers are daemons, so an armed plan never keeps the
// simulation alive past its workload.
type Engine struct {
	clk  sim.Scheduler
	devs []*Device

	// Stall applies a die stall to the underlying SSD model.
	Stall func(ssd, die int, dur int64) error
	// Fabric applies (active=true) or reverts (active=false) a fabric
	// event on the addressed session.
	Fabric func(ev Event, active bool)
	// OnEvent, when set, observes every fault transition after it is
	// applied, on the clock the event ran on (telemetry hook: the bench
	// harness feeds the SLO engine's event log for burn-rate correlation).
	OnEvent func(ev Event, active bool)

	Armed int          // events armed by Arm
	Fired atomic.Int64 // fault transitions executed so far, on any shard
}

// NewEngine builds an engine over the deployment's fault-wrapped devices;
// clk schedules the fabric events.
func NewEngine(clk sim.Scheduler, devs []*Device) *Engine {
	return &Engine{clk: clk, devs: devs}
}

// Arm validates the plan against the engine's devices and schedules every
// event; windowed faults also get their revert scheduled at At+Dur.
// Sessions are validated by the caller (the engine does not know how many
// exist), but fabric events without a Fabric hook are rejected here.
func (e *Engine) Arm(p *Plan) error {
	if err := p.Validate(len(e.devs), -1); err != nil {
		return err
	}
	for _, ev := range p.Events {
		if ev.Kind.IsFabric() && e.Fabric == nil {
			return fmt.Errorf("fault: plan has %s but no fabric hook", ev.Kind)
		}
		if ev.Kind == SSDDieStall && e.Stall == nil {
			return fmt.Errorf("fault: plan has %s but no stall hook", ev.Kind)
		}
	}
	for _, ev := range p.Events {
		ev := ev
		clk := e.clk
		if !ev.Kind.IsFabric() {
			clk = e.devs[ev.SSD].clk
		}
		clk.At(ev.At, func() { e.apply(ev, true) }).MarkDaemon()
		if ev.Kind.windowed() && ev.Dur > 0 {
			clk.At(ev.At+ev.Dur, func() { e.apply(ev, false) }).MarkDaemon()
		}
		e.Armed++
	}
	return nil
}

func (e *Engine) apply(ev Event, active bool) {
	e.Fired.Add(1)
	switch ev.Kind {
	case SSDLatencySpike:
		if active {
			e.devs[ev.SSD].SetExtra(ev.Extra)
		} else {
			e.devs[ev.SSD].SetExtra(0)
		}
	case SSDBrownout:
		if active {
			e.devs[ev.SSD].SetFactor(ev.Factor)
		} else {
			e.devs[ev.SSD].SetFactor(1)
		}
	case SSDFail:
		e.devs[ev.SSD].SetFailed(active)
	case SSDDieStall:
		if err := e.Stall(ev.SSD, ev.Die, ev.Dur); err != nil {
			panic(err) // plan validated at Arm; a failure here is a bug
		}
	default: // fabric kinds
		e.Fabric(ev, active)
	}
	if e.OnEvent != nil {
		e.OnEvent(ev, active)
	}
}
