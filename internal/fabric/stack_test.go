package fabric

import (
	"fmt"
	"reflect"
	"testing"

	"gimbal/internal/fault"
	"gimbal/internal/nvme"
	"gimbal/internal/sim"
	"gimbal/internal/ssd"
	"gimbal/internal/tier"
)

// handAssemble is the assembly BuildStack replaced, kept as its reference:
// wrap selects between the two shapes that existed (the facade and gimbald
// always put the inert fault layer in; the bench harness only under a fault
// plan).
func handAssemble(loop *sim.Loop, rng *sim.RNG, cfg StackConfig, n int, wrap bool) (*Target, []*ssd.SSD) {
	var devs []ssd.Device
	var ssds []*ssd.SSD
	var tiers []*tier.Device
	for i := 0; i < n; i++ {
		d := ssd.New(loop, cfg.Params)
		if cfg.Tier != nil {
			d.SetSnapshotTag(cfg.Tier.SnapshotTag())
		}
		d.Precondition(cfg.Cond, rng.Fork())
		ssds = append(ssds, d)
		var dev ssd.Device = d
		if wrap {
			dev = fault.Wrap(loop, dev)
		}
		if cfg.Tier != nil {
			t := tier.New(loop, dev, *cfg.Tier)
			tiers = append(tiers, t)
			dev = t
		}
		devs = append(devs, dev)
	}
	target := NewTarget(loop, devs, cfg.Target)
	for i, t := range tiers {
		if g := target.Pipeline(i).Gimbal; g != nil {
			g.SetCostModel(t)
		}
	}
	return target, ssds
}

// firstIOs drives a fixed mixed burst through one session per SSD and
// returns every completion as "ssd/seq status @time".
func firstIOs(loop *sim.Loop, target *Target) []string {
	var log []string
	for i := 0; i < target.SSDs(); i++ {
		sess := target.Connect(nvme.NewTenant(i, fmt.Sprintf("t%d", i)), i)
		for j := 0; j < 96; j++ {
			i, j := i, j
			op, size := nvme.Opcode(nvme.OpRead), 4096
			if j%3 == 0 {
				op, size = nvme.OpWrite, 16<<10
			}
			sess.Submit(&nvme.IO{
				Op: op, Offset: int64(j%24) * 64 << 10, Size: size,
				Done: func(_ *nvme.IO, cpl nvme.Completion) {
					log = append(log, fmt.Sprintf("%d/%d %#x @%d", i, j, uint16(cpl.Status), loop.Now()))
				},
			})
		}
	}
	loop.Run()
	return log
}

// TestBuildStackMatchesHandAssembly: the builder is the old assembly, not
// a new one — same seed in, same RNG consumption, same FTL snapshot key,
// same device state and the same completion times out, tiered and
// untiered, against both shapes the hand-rolled copies had.
func TestBuildStackMatchesHandAssembly(t *testing.T) {
	p := ssd.DCT983()
	p.UsableBytes = 64 << 20
	tp := tier.DefaultParams(4 << 20)
	for _, tc := range []struct {
		name string
		tier *tier.Params
	}{{"untiered", nil}, {"tiered", &tp}} {
		for _, wrap := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/wrap=%v", tc.name, wrap), func(t *testing.T) {
				const n, seed = 2, 77
				cfg := StackConfig{Params: p, Cond: ssd.Fragmented, Tier: tc.tier,
					Target: DefaultTargetConfig(SchemeGimbal)}

				loopA, rngA := sim.NewLoop(), sim.NewRNG(seed)
				st, err := BuildStack([]sim.Scheduler{loopA, loopA}, rngA, cfg)
				if err != nil {
					t.Fatal(err)
				}
				loopB, rngB := sim.NewLoop(), sim.NewRNG(seed)
				ref, refSSDs := handAssemble(loopB, rngB, cfg, n, wrap)

				if rngA.State() != rngB.State() {
					t.Fatal("BuildStack consumed the caller's RNG differently")
				}
				wantTag := uint64(0)
				if tc.tier != nil {
					wantTag = tc.tier.SnapshotTag()
				}
				for i, d := range st.SSDs {
					// Key = (Params, Condition, RNG state, tag); the first
					// three are equal by construction and the check above.
					if d.SnapshotTag() != wantTag || d.SnapshotTag() != refSSDs[i].SnapshotTag() {
						t.Fatalf("ssd %d snapshot tag %#x, reference %#x, want %#x",
							i, d.SnapshotTag(), refSSDs[i].SnapshotTag(), wantTag)
					}
				}
				if len(st.Wraps) != n || (tc.tier != nil) != (len(st.Tiers) == n) {
					t.Fatalf("stack shape: %d wraps, %d tiers", len(st.Wraps), len(st.Tiers))
				}

				got, want := firstIOs(loopA, st.Target), firstIOs(loopB, ref)
				if len(want) != n*96 {
					t.Fatalf("reference completed %d of %d IOs", len(want), n*96)
				}
				if !reflect.DeepEqual(got, want) {
					for i := range want {
						if i >= len(got) || got[i] != want[i] {
							t.Fatalf("completion %d: got %q, reference %q", i, got[i:i+1], want[i])
						}
					}
					t.Fatalf("%d completions, reference %d", len(got), len(want))
				}
				for i, d := range st.SSDs {
					if d.Stats() != refSSDs[i].Stats() || d.WriteAmplification() != refSSDs[i].WriteAmplification() {
						t.Fatalf("ssd %d ended in a different state:\n got %+v\nwant %+v", i, d.Stats(), refSSDs[i].Stats())
					}
					if err := d.FTLCheck(); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
	}
}

func TestBuildStackRejectsBadConfig(t *testing.T) {
	loop := sim.NewLoop()
	good := StackConfig{Params: ssd.DCT983(), Target: DefaultTargetConfig(SchemeGimbal)}
	if _, err := BuildStack(nil, sim.NewRNG(1), good); err == nil {
		t.Error("no SSDs: want an error")
	}
	bad := good
	bad.Params.UsableBytes = 1
	if _, err := BuildStack([]sim.Scheduler{loop}, sim.NewRNG(1), bad); err == nil {
		t.Error("capacity below a page: want an error")
	}
	bad = good
	bad.Tier = &tier.Params{}
	if _, err := BuildStack([]sim.Scheduler{loop}, sim.NewRNG(1), bad); err == nil {
		t.Error("zero tier params: want an error")
	}
}

// TestStackEngineHooks: the engine BuildStack hands out reaches the NAND
// model for die stalls, and the tier for bypass only when there is one.
func TestStackEngineHooks(t *testing.T) {
	p := ssd.DCT983()
	p.UsableBytes = 64 << 20
	tp := tier.DefaultParams(4 << 20)
	plan := &fault.Plan{Events: []fault.Event{
		{Kind: fault.SSDDieStall, At: sim.Millisecond, Dur: sim.Millisecond, SSD: 0, Die: 1},
		{Kind: fault.SSDTierBypass, At: sim.Millisecond, Dur: sim.Millisecond, SSD: 0},
	}}
	for _, tiered := range []bool{false, true} {
		loop := sim.NewLoop()
		cfg := StackConfig{Params: p, Cond: ssd.Clean, Target: DefaultTargetConfig(SchemeGimbal)}
		if tiered {
			cfg.Tier = &tp
		}
		st, err := BuildStack([]sim.Scheduler{loop}, sim.NewRNG(1), cfg)
		if err != nil {
			t.Fatal(err)
		}
		err = st.Engine(loop).Arm(plan)
		if !tiered {
			if err == nil {
				t.Fatal("tier-bypass plan armed on an untiered stack")
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		loop.RunUntil(sim.Millisecond + 1)
		if !st.Tiers[0].Bypassed() {
			t.Fatal("tier bypass did not reach the tier")
		}
		loop.RunUntil(2*sim.Millisecond + 1)
		if st.Tiers[0].Bypassed() {
			t.Fatal("tier bypass did not revert")
		}
	}
}
