package fabric

import (
	"testing"

	"gimbal/internal/nvme"
	"gimbal/internal/obs"
	"gimbal/internal/sim"
	"gimbal/internal/ssd"
	"gimbal/internal/workload"
)

// Over DefaultNet (5 µs one way, 100 Gb/s, 64 B capsules) and a NULL device
// of 20 µs, an IO's legs are exact:
//
//	uplink   64 B capsule (+ write data): 5 ns + 5 µs, a 128 KiB write 10 490 ns + 5 µs
//	device   20 000 ns
//	downlink 64 B capsule (+ read data):  5 ns + 5 µs, a 4 KiB read 332 ns + 5 µs
const (
	stampDevNs    = 20 * sim.Microsecond
	stampRd4kNs   = 5_005 + stampDevNs + 5_332  // 30.3 µs
	stampWr128kNs = 15_490 + stampDevNs + 5_005 // 40.5 µs
)

// stampSession connects one tenant to a vanilla target over dev.
func stampSession(loop *sim.Loop, dev ssd.Device) (*nvme.Tenant, *Session) {
	tgt := NewTarget(loop, []ssd.Device{dev}, DefaultTargetConfig(SchemeVanilla))
	tn := nvme.NewTenant(0, "c")
	return tn, tgt.Connect(tn, 0)
}

// TestWorkerLatencyCoversTheWire: the worker times its IOs from its own
// Issued stamp, so a QD1 latency is the whole submit → done path, uplink
// included — not the target-side residency the scheduler's Arrival stamp
// would give (25.3 µs for the read, 25.0 µs for the write).
func TestWorkerLatencyCoversTheWire(t *testing.T) {
	for _, c := range []struct {
		p    workload.Profile
		want int64
	}{
		{workload.Profile{Name: "rd", ReadRatio: 1, IOSize: 4 << 10, QD: 1}, stampRd4kNs},
		{workload.Profile{Name: "wr", ReadRatio: 0, IOSize: 128 << 10, QD: 1}, stampWr128kNs},
	} {
		loop := sim.NewLoop()
		tn, sess := stampSession(loop, ssd.NewNull(loop, 1<<30, stampDevNs))
		c.p.Span = 1 << 28
		w := workload.NewWorker(loop, sim.NewRNG(2), c.p, tn, sess)
		w.Start(sim.Millisecond)
		loop.Run()
		h := w.ReadLat
		if c.p.ReadRatio == 0 {
			h = w.WriteLat
		}
		if h.Count() == 0 || h.Min() != c.want || h.Max() != c.want {
			t.Errorf("%s: QD1 latency min %d max %d ns over %d IOs, want %d", c.p.Name, h.Min(), h.Max(), h.Count(), c.want)
		}
	}
}

// slowFirst holds the first request it sees for hold before passing it on.
type slowFirst struct {
	ssd.Device
	clk  sim.Scheduler
	hold int64
	seen bool
}

func (d *slowFirst) Submit(r *ssd.Request) {
	if d.seen {
		d.Device.Submit(r)
		return
	}
	d.seen = true
	d.clk.After(d.hold, func() { d.Device.Submit(r) })
}

// TestRetriedLatencyCoversEveryAttempt: a managed IO whose first attempt
// times out and whose reissue succeeds reads the whole wait, deadline and
// backoff included — the issuer's stamp, not the winning attempt's.
func TestRetriedLatencyCoversEveryAttempt(t *testing.T) {
	loop := sim.NewLoop()
	dev := &slowFirst{Device: ssd.NewNull(loop, 1<<30, stampDevNs), clk: loop, hold: 5 * sim.Millisecond}
	tn, sess := stampSession(loop, dev)
	rp := RetryPolicy{Timeout: sim.Millisecond, MaxRetries: 2, Backoff: 250 * sim.Microsecond}
	sess.SetRetryPolicy(rp)
	w := workload.NewWorker(loop, sim.NewRNG(2),
		workload.Profile{Name: "rd", ReadRatio: 1, IOSize: 4 << 10, QD: 1, Span: 1 << 28}, tn, sess)
	w.Start(1) // one IO
	// Hold the loop to the reissue's reply: the first attempt's late reply
	// (5 ms in) is counted but changes nothing.
	loop.Run()
	want := rp.Timeout + rp.Backoff + stampRd4kNs
	if n, got := w.ReadLat.Count(), w.ReadLat.Max(); n != 1 || got != want {
		t.Fatalf("retried IO: %d samples, latency %d ns, want 1 sample of %d", n, got, want)
	}
	if sess.Retries != 1 || sess.LateReplies != 1 {
		t.Fatalf("retries %d, late replies %d, want 1 and 1", sess.Retries, sess.LateReplies)
	}
}

// TestSendAtTimeZeroKeepsUplink: zero is a valid simulated time, so an IO
// its session sends at t=0 keeps its uplink leg in the trace's fabric phase
// and in the SLO latency.
func TestSendAtTimeZeroKeepsUplink(t *testing.T) {
	loop := sim.NewLoop()
	tgt := NewTarget(loop, []ssd.Device{ssd.NewNull(loop, 1<<30, stampDevNs)}, DefaultTargetConfig(SchemeGimbal))
	hub := obs.NewHub(obs.NewRegistry())
	hub.Tracer = obs.NewTracer(obs.TracerConfig{Capacity: 8, SampleEvery: 1})
	// The uplink and the device take 25 005 ns; the device alone 20 000.
	hub.SLO = obs.NewSLOEngine(obs.SLO{LatencyTargetNs: 24 * sim.Microsecond, LatencyGoal: 0.99})
	tgt.AttachObs(hub)
	sess := tgt.Connect(nvme.NewTenant(0, "c"), 0)
	sess.Submit(&nvme.IO{Op: nvme.OpRead, Size: 4096, Done: func(*nvme.IO, nvme.Completion) {}})
	loop.Run()
	traces := hub.Ring().Snapshot()
	if len(traces) != 1 {
		t.Fatalf("%d traces, want 1", len(traces))
	}
	if tr := traces[0]; tr.Origin != 0 || tr.Phases()[obs.PhaseFabric] != 5_005 {
		t.Fatalf("trace origin %d fabric %d ns, want 0 and 5005", tr.Origin, tr.Phases()[obs.PhaseFabric])
	}
	if met := hub.SLO.Tenant("c").MetFraction(); met != 0 {
		t.Fatalf("SLO met fraction %v: the 25 µs IO was judged without its uplink", met)
	}
}
