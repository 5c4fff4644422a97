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

// benchSwitchPaced prices the token-stall path. A closed loop of 8 IOs
// stands in front of a rate limit far below what the NULL device
// completes, and the bucket's opening burst is drained before the clock
// starts. The rate sits at MaxRate, so no completion moves it and every
// enqueue and completion finds the pump stalled and runs no pass: each IO
// is admitted by a pacing fire, whose pass then stalls on the next one.
// One iteration is one IO; stalls/IO and fires/IO count the passes that
// stopped for want of tokens and the timer's fires.
func benchSwitchPaced(b *testing.B) {
	loop := sim.NewLoop()
	// Non-zero latency: completions must arrive as loop events, outside
	// the pump pass that submitted them.
	dev := ssd.NewNull(loop, 1<<30, 100)
	cfg := DefaultConfig()
	cfg.Rate.InitialRate, cfg.Rate.MaxRate = 40e6, 40e6 // one 4KB IO per ~100us
	sw := New(loop, dev, cfg)
	fires := 0
	sw.pumpFn = func() {
		fires++
		sw.pump()
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
	ios := make([]nvme.IO, 8)
	// run completes n IOs, at most len(ios) of them in flight.
	run := func(n int) {
		qd := len(ios)
		if n < qd {
			qd = n
		}
		budget, done = n-qd, 0
		for i := range ios[:qd] {
			ios[i] = nvme.IO{Op: nvme.OpRead, Offset: int64(i) * 4096, Size: 4096, Tenant: tn, Done: resubmit}
			sw.Enqueue(&ios[i])
		}
		loop.Run()
	}
	run(2 * int(cfg.Rate.BucketMax) / 4096) // spend the opening burst
	stalls0, fires0 := sw.stats.PacingStalls, fires
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
	b.StopTimer()
	if done != b.N {
		b.Fatalf("completed %d of %d", done, b.N)
	}
	b.ReportMetric(float64(sw.stats.PacingStalls-stalls0)/float64(b.N), "stalls/IO")
	b.ReportMetric(float64(fires-fires0)/float64(b.N), "fires/IO")
}

// BenchmarkSwitchSubmit is the acceptance benchmark for the telemetry
// layer: the NoSink variant (obs pointer nil) must stay within noise of
// the pre-instrumentation submit path, and Attached bounds the cost of
// full counter/histogram/trace recording. Paced is the same path when
// the rate pacer admits every IO.
func BenchmarkSwitchSubmit(b *testing.B) {
	b.Run("NoSink", func(b *testing.B) { benchSwitchSubmit(b, false) })
	b.Run("Attached", func(b *testing.B) { benchSwitchSubmit(b, true) })
	b.Run("Paced", benchSwitchPaced)
}
