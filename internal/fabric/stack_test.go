package fabric

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"gimbal/internal/fault"
	"gimbal/internal/nvme"
	"gimbal/internal/sim"
	"gimbal/internal/ssd"
)

// handAssemble is the assembly BuildStack replaced, kept as its reference:
// wrap selects between the two shapes that existed (the facade and gimbald
// always put the inert fault layer in; the bench harness only under a fault
// plan).
func handAssemble(loop *sim.Loop, rng *sim.RNG, cfg StackConfig, n int, wrap bool) (*Target, []*ssd.SSD) {
	var devs []ssd.Device
	var ssds []*ssd.SSD
	for i := 0; i < n; i++ {
		d := ssd.New(loop, cfg.Params)
		d.Precondition(cfg.Cond, rng.Fork())
		ssds = append(ssds, d)
		var dev ssd.Device = d
		if wrap {
			dev = fault.Wrap(loop, dev)
		}
		devs = append(devs, dev)
	}
	return NewTarget(loop, devs, cfg.Target), ssds
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
// a new one — same seed in, same RNG consumption, same device state and the
// same completion times out, against both shapes the hand-rolled copies
// had.
func TestBuildStackMatchesHandAssembly(t *testing.T) {
	p := ssd.DCT983()
	p.UsableBytes = 64 << 20
	for _, wrap := range []bool{true, false} {
		t.Run(fmt.Sprintf("untiered/wrap=%v", wrap), func(t *testing.T) {
			const n, seed = 2, 77
			cfg := StackConfig{Params: p, Cond: ssd.Fragmented, Target: DefaultTargetConfig(SchemeGimbal)}

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
			if len(st.Wraps) != n {
				t.Fatalf("stack shape: %d wraps", len(st.Wraps))
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
}

// TestStackEngineHooks: the engine BuildStack hands out reaches the NAND
// model for die stalls.
func TestStackEngineHooks(t *testing.T) {
	p := ssd.DCT983()
	p.UsableBytes = 64 << 20
	loop := sim.NewLoop()
	st, err := BuildStack([]sim.Scheduler{loop}, sim.NewRNG(1),
		StackConfig{Params: p, Cond: ssd.Clean, Target: DefaultTargetConfig(SchemeGimbal)})
	if err != nil {
		t.Fatal(err)
	}
	e := st.Engine(loop)
	if err := e.Arm(&fault.Plan{Events: []fault.Event{
		{Kind: fault.SSDDieStall, At: sim.Millisecond, Dur: sim.Millisecond, SSD: 0, Die: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	loop.RunUntil(sim.Millisecond + 1)
	if e.Fired.Load() != 1 {
		t.Fatalf("die stall fired %d times, want 1", e.Fired.Load())
	}
	// The clean fill stripes 8-page batches across the dies in turn, so
	// the first 64 KiB end on die 1.
	done := int64(0)
	st.SSDs[0].Submit(&ssd.Request{Kind: ssd.OpRead, Size: 64 << 10, Done: func(r *ssd.Request) { done = r.CompleteTime }})
	loop.Run()
	if done < 2*sim.Millisecond {
		t.Fatalf("read across the stalled die completed at %d, before the stall ends", done)
	}
}

// TestStackEngineTwoShards: one engine arms a plan over a stack on two
// wall-clock shards, and each SSD's fault engages and reverts on that
// SSD's own shard: SSD 0's brownout runs its course while shard 1 is held,
// and SSD 1's latency spike while shard 0 is.
func TestStackEngineTwoShards(t *testing.T) {
	p := ssd.DCT983()
	p.UsableBytes = 64 << 20
	shards := sim.NewRealShards(2)
	defer shards.Stop()
	st, err := BuildStack([]sim.Scheduler{shards.Shard(0), shards.Shard(1)}, sim.NewRNG(1),
		StackConfig{Params: p, Cond: ssd.Clean, Target: DefaultTargetConfig(SchemeGimbal)})
	if err != nil {
		t.Fatal(err)
	}
	type transition struct {
		ssd             int
		active, faulted bool
	}
	seen := make(chan transition, 4)
	e := st.Engine(shards.Shard(0))
	e.OnEvent = func(ev fault.Event, active bool) {
		seen <- transition{ev.SSD, active, st.Wraps[ev.SSD].Faulted()}
	}
	at := shards.Now() + 20*sim.Millisecond
	if err := e.Arm(&fault.Plan{Events: []fault.Event{
		{Kind: fault.SSDBrownout, At: at, Dur: 20 * sim.Millisecond, SSD: 0, Factor: 4},
		{Kind: fault.SSDLatencySpike, At: at, Dur: 20 * sim.Millisecond, SSD: 1, Extra: sim.Millisecond},
	}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		held := shards.Shard(1 - i)
		held.Lock()
		own := shards.Shard(i)
		own.Lock() // a shard fires nothing before its first entry
		own.Unlock()
		for _, active := range []bool{true, false} {
			select {
			case got := <-seen:
				if want := (transition{i, active, active}); got != want {
					t.Errorf("transition %+v, want %+v", got, want)
				}
			case <-time.After(10 * time.Second):
				held.Unlock() // shards.Stop takes every shard lock
				t.Fatalf("SSD %d's fault (active=%v) did not run with shard %d held", i, active, 1-i)
			}
		}
		held.Unlock()
	}
	if got := e.Fired.Load(); got != 4 {
		t.Fatalf("Fired = %d, want 4", got)
	}
}
