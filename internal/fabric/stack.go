package fabric

import (
	"errors"

	"gimbal/internal/fault"
	"gimbal/internal/sim"
	"gimbal/internal/ssd"
	"gimbal/internal/tier"
)

// StackConfig describes a storage node from the flash up: the NAND model
// and the state it is pre-conditioned into, an optional fast tier in front
// of every SSD, and the target (scheme) configuration on top.
type StackConfig struct {
	Params ssd.Params
	Cond   ssd.Condition
	// Tier, when set, interposes a fast-tier cache with these parameters
	// in front of every SSD.
	Tier   *tier.Params
	Target TargetConfig
}

// Stack is a built storage node. Every SSD has the same shape,
//
//	NAND model → fault layer (inert until a fault is set) → [fast tier]
//
// and the target's pipeline i drives the outermost layer of SSD i.
type Stack struct {
	SSDs   []*ssd.SSD
	Wraps  []*fault.Device
	Tiers  []*tier.Device // empty without StackConfig.Tier
	Target *Target
}

// BuildStack is the one way to stand up a storage node — the simulator
// harness, the public facade and gimbald all call it. SSD i and its
// pipeline run on clks[i]: one shared loop in the simulator, shard i%R
// under the live reactors. It owns the assembly rules callers used to
// repeat: the FTL snapshot tag is set before pre-conditioning (a tiered
// stack must not share a snapshot cache entry with an untiered one of the
// same Params — the tier reshapes the write stream the FTL sees after the
// snapshot point); the fault layer sits below the tier, so NAND brownouts
// never slow tier hits; and Gimbal pipelines take their tier as write-cost
// model. rng is forked once per SSD, in index order, before anything else
// is drawn, so a caller's later forks see the same stream as ever.
func BuildStack(clks []sim.Scheduler, rng *sim.RNG, cfg StackConfig) (*Stack, error) {
	if len(clks) == 0 {
		return nil, errors.New("fabric: a stack needs at least one SSD")
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if cfg.Tier != nil {
		if err := cfg.Tier.Validate(); err != nil {
			return nil, err
		}
	}
	s := &Stack{}
	devs := make([]ssd.Device, len(clks))
	for i, clk := range clks {
		d := ssd.New(clk, cfg.Params)
		if cfg.Tier != nil {
			d.SetSnapshotTag(cfg.Tier.SnapshotTag())
		}
		d.Precondition(cfg.Cond, rng.Fork())
		w := fault.Wrap(clk, d)
		s.SSDs = append(s.SSDs, d)
		s.Wraps = append(s.Wraps, w)
		devs[i] = w
		if cfg.Tier != nil {
			t := tier.New(clk, w, *cfg.Tier)
			s.Tiers = append(s.Tiers, t)
			devs[i] = t
		}
	}
	s.Target = NewShardedTarget(clks, devs, cfg.Target)
	for i, t := range s.Tiers {
		if g := s.Target.Pipeline(i).Gimbal; g != nil {
			g.SetCostModel(t)
		}
	}
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

// Engine returns a fault engine over the stack's fault layers that
// schedules on clk, with the device-level hooks wired: die stalls reach the
// NAND models and tier bypass reaches the tiers (without a tier that hook
// stays nil, so Arm rejects a plan that asks for it). Callers add Fabric
// and OnEvent. An engine may only carry events for SSDs that run on clk.
func (s *Stack) Engine(clk sim.Scheduler) *fault.Engine {
	e := fault.NewEngine(clk, s.Wraps)
	e.Stall = func(ssdIdx, die int, dur int64) error {
		return s.SSDs[ssdIdx].InjectDieStall(die, dur)
	}
	if len(s.Tiers) > 0 {
		e.Tier = func(ssdIdx int, active bool) { s.Tiers[ssdIdx].SetBypass(active) }
	}
	return e
}
