package core

import (
	"testing"

	"gimbal/internal/nvme"
	"gimbal/internal/obs"
	"gimbal/internal/sim"
	"gimbal/internal/ssd"
)

// benchRig drives one IO at a time through a switch over a NULL device so
// the measured cost is the switch's submit + completion path (the pure
// software overhead of Table 1b), not the SSD model.
func benchSwitchSubmit(b *testing.B, attach bool) {
	loop := sim.NewLoop()
	dev := ssd.NewNull(loop, 1<<30, 0)
	sw := New(loop, dev, DefaultConfig())
	if attach {
		hub := obs.NewHub(obs.NewRegistry())
		hub.Tracer = obs.NewTracer(obs.TracerConfig{Capacity: 1024, SampleEvery: 1})
		sw.AttachObs(hub, 0)
	}
	tn := nvme.NewTenant(1, "bench")
	sw.Register(tn)

	done := 0
	io := &nvme.IO{
		Op:     nvme.OpRead,
		Size:   4096,
		Tenant: tn,
		Done:   func(*nvme.IO, nvme.Completion) { done++ },
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		io.Offset = int64(i%1024) * 4096
		sw.Enqueue(io)
		loop.Run()
	}
	b.StopTimer()
	if done != b.N {
		b.Fatalf("completed %d of %d", done, b.N)
	}
}

// benchSwitchPaced prices the token-stall path. A closed loop of IOs
// stands in front of a rate limit below what the device completes, and the
// bucket's opening burst is drained before the clock starts. One iteration
// is one IO; Selects/IO, stalls/IO and fires/IO count sched.DRR.Select
// calls, the passes that stopped for want of tokens and the pacing timer's
// fires.
//
// Pinned (moving false): the NULL device completes in 100 ns and the rate
// sits at MaxRate, so no completion moves it and every enqueue and
// completion finds the pump stalled and runs no pass: each IO is admitted
// by a pacing fire, whose pass then stalls on the next one. Moving: 32 IOs
// queue at a device that serves one at a time for 100 µs (queueDev), so
// its latency is the backlog the pacer lets through. The latency monitor
// swings between congestion avoidance and congested, as over NAND, and
// the rate hovers at the device's 41 MB/s: nearly every completion moves
// it and runs a pass, and that pass stalls.
func benchSwitchPaced(b *testing.B, moving bool) {
	loop := sim.NewLoop()
	cfg := DefaultConfig()
	// Non-zero latency: completions must arrive as loop events, outside
	// the pump pass that submitted them.
	var dev ssd.Device = ssd.NewNull(loop, 1<<30, 100)
	qd := 8
	if moving {
		dev, qd = newQueueDev(loop, 100*sim.Microsecond), 32
	} else {
		cfg.Rate.InitialRate, cfg.Rate.MaxRate = 40e6, 40e6 // one 4KB IO per ~100us
	}
	sw := New(loop, dev, cfg)
	fires, moved := 0, 0
	sw.pumpFn = func() {
		fires++
		sw.pump()
	}
	sw.devDoneFn = func(io *nvme.IO) {
		rate := sw.rate.TargetRate()
		sw.onDeviceDone(io)
		if sw.rate.TargetRate() != rate {
			moved++
		}
	}
	tn := nvme.NewTenant(1, "bench")
	sw.Register(tn)

	budget, done := 0, 0
	resubmit := func(io *nvme.IO, _ nvme.Completion) {
		done++
		if budget > 0 {
			budget--
			sw.Enqueue(io)
		}
	}
	ios := make([]nvme.IO, qd)
	// run completes n IOs, at most len(ios) of them in flight.
	run := func(n int) {
		qd := min(len(ios), n)
		budget, done = n-qd, 0
		for i := range ios[:qd] {
			ios[i] = nvme.IO{Op: nvme.OpRead, Offset: int64(i) * 4096, Size: 4096, Tenant: tn, Done: resubmit}
			sw.Enqueue(&ios[i])
		}
		loop.Run()
	}
	run(2 * int(cfg.Rate.BucketMax) / 4096) // spend the opening burst
	st0, fires0, moved0 := sw.stats, fires, moved
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
	b.StopTimer()
	if done != b.N {
		b.Fatalf("completed %d of %d", done, b.N)
	}
	n := float64(b.N)
	b.ReportMetric(float64(sw.stats.Selects-st0.Selects)/n, "Selects/IO")
	b.ReportMetric(float64(sw.stats.PacingStalls-st0.PacingStalls)/n, "stalls/IO")
	b.ReportMetric(float64(fires-fires0)/n, "fires/IO")
	b.ReportMetric(float64(moved-moved0)/n, "moves/IO")
}

// queueDev is a device with one server: each request holds it for svc ns
// in arrival order, so a request's latency is the backlog ahead of it plus
// its own service.
type queueDev struct {
	loop       *sim.Loop
	svc        int64
	free       int64             // when the server is next idle
	ring       [128]*ssd.Request // in service order; holds more than any bench queue
	head, n    int
	completeFn func()
}

func newQueueDev(loop *sim.Loop, svc int64) *queueDev {
	d := &queueDev{loop: loop, svc: svc}
	d.completeFn = d.completeFront
	return d
}

func (d *queueDev) Capacity() int64 { return 1 << 30 }

func (d *queueDev) Submit(r *ssd.Request) {
	now := d.loop.Now()
	r.SubmitTime = now
	d.free = max(d.free, now) + d.svc
	d.ring[(d.head+d.n)%len(d.ring)] = r
	d.n++
	d.loop.At(d.free, d.completeFn)
}

func (d *queueDev) completeFront() {
	r := d.ring[d.head]
	d.ring[d.head] = nil
	d.head, d.n = (d.head+1)%len(d.ring), d.n-1
	r.CompleteTime = d.loop.Now()
	r.Done(r)
}

// BenchmarkSwitchSubmit is the acceptance benchmark for the telemetry
// layer: the NoSink variant (obs pointer nil) must stay within noise of
// the pre-instrumentation submit path, and Attached bounds the cost of
// full counter/histogram/trace recording. Paced and PacedMoving are the
// same path when the rate pacer admits every IO (benchSwitchPaced).
func BenchmarkSwitchSubmit(b *testing.B) {
	b.Run("NoSink", func(b *testing.B) { benchSwitchSubmit(b, false) })
	b.Run("Attached", func(b *testing.B) { benchSwitchSubmit(b, true) })
	b.Run("Paced", func(b *testing.B) { benchSwitchPaced(b, false) })
	b.Run("PacedMoving", func(b *testing.B) { benchSwitchPaced(b, true) })
}
