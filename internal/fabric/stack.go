package fabric

import (
	"errors"

	"gimbal/internal/fault"
	"gimbal/internal/sim"
	"gimbal/internal/ssd"
)

// StackConfig describes a storage node from the flash up: the NAND model
// and the state it is pre-conditioned into, and the target (scheme)
// configuration on top.
type StackConfig struct {
	Params ssd.Params
	Cond   ssd.Condition
	Target TargetConfig
}

// Stack is a built storage node. Every SSD has the same shape,
//
//	NAND model → fault layer (inert until a fault is set)
//
// and the target's pipeline i drives the fault layer of SSD i.
type Stack struct {
	SSDs   []*ssd.SSD
	Wraps  []*fault.Device
	Target *Target
}

// BuildStack is the one way to stand up a storage node — the simulator
// harness, the public facade and gimbald all call it. SSD i and its
// pipeline run on clks[i]: one shared loop in the simulator, shard i%R
// under the live reactors. rng is forked once per SSD, in index order,
// before anything else is drawn, so a caller's later forks see the same
// stream as ever.
func BuildStack(clks []sim.Scheduler, rng *sim.RNG, cfg StackConfig) (*Stack, error) {
	if len(clks) == 0 {
		return nil, errors.New("fabric: a stack needs at least one SSD")
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	s := &Stack{}
	devs := make([]ssd.Device, len(clks))
	for i, clk := range clks {
		d := ssd.New(clk, cfg.Params)
		d.Precondition(cfg.Cond, rng.Fork())
		w := fault.Wrap(clk, d)
		s.SSDs = append(s.SSDs, d)
		s.Wraps = append(s.Wraps, w)
		devs[i] = w
	}
	s.Target = NewShardedTarget(clks, devs, cfg.Target)
	return s, nil
}

// SharedClock is BuildStack's clks for a node whose n SSDs all run on one
// scheduler — every simulated stack.
func SharedClock(clk sim.Scheduler, n int) []sim.Scheduler {
	clks := make([]sim.Scheduler, n)
	for i := range clks {
		clks[i] = clk
	}
	return clks
}

// Engine returns a fault engine over the stack's fault layers, with die
// stalls wired to the NAND models: SSD i's events run on clks[i], fabric
// events on clk. Callers add Fabric and OnEvent.
func (s *Stack) Engine(clk sim.Scheduler) *fault.Engine {
	e := fault.NewEngine(clk, s.Wraps)
	e.Stall = func(ssdIdx, die int, dur int64) error {
		return s.SSDs[ssdIdx].InjectDieStall(die, dur)
	}
	return e
}
