package core

import (
	"testing"

	"gimbal/internal/nvme"
	"gimbal/internal/sim"
	"gimbal/internal/ssd"
	"gimbal/internal/workload"
)

// rig builds a loop + preconditioned SSD + switch.
func rig(t *testing.T, cond ssd.Condition) (*sim.Loop, *ssd.SSD, *Switch) {
	t.Helper()
	loop := sim.NewLoop()
	p := ssd.DCT983()
	p.UsableBytes = 2 << 30
	dev := ssd.New(loop, p)
	dev.Precondition(cond, sim.NewRNG(1))
	sw := New(loop, dev, DefaultConfig())
	return loop, dev, sw
}

func runWorkers(loop *sim.Loop, sw *Switch, profiles []workload.Profile, span int64,
	warm, dur int64) []*workload.Worker {
	rng := sim.NewRNG(7)
	var ws []*workload.Worker
	for i, p := range profiles {
		tn := nvme.NewTenant(i, p.Name)
		sw.Register(tn)
		if p.Span == 0 {
			p.Span = span
		}
		w := workload.NewWorker(loop, rng.Fork(), p, tn, workload.SchedTarget{S: sw})
		ws = append(ws, w)
	}
	stop := loop.Now() + warm + dur
	for _, w := range ws {
		w.Start(stop)
	}
	loop.RunUntil(loop.Now() + warm)
	for _, w := range ws {
		w.ResetStats()
	}
	loop.RunUntil(stop)
	loop.Run()
	return ws
}

func TestSwitchSingleTenantReachesDeviceBandwidth(t *testing.T) {
	loop, _, sw := rig(t, ssd.Clean)
	ws := runWorkers(loop, sw, []workload.Profile{
		{Name: "r", ReadRatio: 1, IOSize: 128 << 10, QD: 8},
	}, 2<<30, 500*sim.Millisecond, 1*sim.Second)
	bw := ws[0].BandwidthMBps()
	t.Logf("single 128KB reader through gimbal: %.0f MB/s", bw)
	// The raw device does ~3000 MB/s; the switch should not cost more than
	// ~15% of it (congestion control trades a little peak for latency).
	if bw < 2400 {
		t.Errorf("switch throttles single tenant too hard: %.0f MB/s", bw)
	}
}

func TestSwitchFairnessAcrossIOSizes(t *testing.T) {
	// Fig 7a/7d scenario in miniature: 4KB readers vs 128KB readers should
	// receive comparable per-worker shares of device occupancy — the 128KB
	// worker may get somewhat more (its standalone max is higher) but not
	// the multiples an unmanaged device gives.
	loop, _, sw := rig(t, ssd.Clean)
	ws := runWorkers(loop, sw, []workload.Profile{
		{Name: "small-0", ReadRatio: 1, IOSize: 4096, QD: 32},
		{Name: "small-1", ReadRatio: 1, IOSize: 4096, QD: 32},
		{Name: "big-0", ReadRatio: 1, IOSize: 128 << 10, QD: 4},
		{Name: "big-1", ReadRatio: 1, IOSize: 128 << 10, QD: 4},
	}, 2<<30, 500*sim.Millisecond, 2*sim.Second)
	small := ws[0].BandwidthMBps() + ws[1].BandwidthMBps()
	big := ws[2].BandwidthMBps() + ws[3].BandwidthMBps()
	t.Logf("4KB pair: %.0f MB/s, 128KB pair: %.0f MB/s", small, big)
	if small <= 0 || big <= 0 {
		t.Fatal("a class starved")
	}
	if ratio := big / small; ratio > 3.0 {
		t.Errorf("128KB/4KB share ratio = %.2f, want < 3 (device alone gives >5)", ratio)
	}
}

func TestSwitchFairnessReadVsWriteFragmented(t *testing.T) {
	// Fig 7f scenario: on a fragmented SSD, readers must not crush writers
	// and vice versa; the write-cost weighting keeps shares comparable in
	// f-Util terms. Here we check writers collectively get bandwidth within
	// the regime their standalone max implies (~180 MB/s standalone).
	loop, _, sw := rig(t, ssd.Fragmented)
	ws := runWorkers(loop, sw, []workload.Profile{
		{Name: "r0", ReadRatio: 1, IOSize: 4096, QD: 32},
		{Name: "r1", ReadRatio: 1, IOSize: 4096, QD: 32},
		{Name: "w0", ReadRatio: 0, IOSize: 4096, QD: 32},
		{Name: "w1", ReadRatio: 0, IOSize: 4096, QD: 32},
	}, 2<<30, 1*sim.Second, 2*sim.Second)
	read := ws[0].BandwidthMBps() + ws[1].BandwidthMBps()
	write := ws[2].BandwidthMBps() + ws[3].BandwidthMBps()
	t.Logf("fragmented mixed: read %.0f MB/s write %.0f MB/s (cost=%.1f)",
		read, write, sw.WriteCost())
	if write < 20 {
		t.Errorf("writers starved: %.0f MB/s", write)
	}
	if read < 100 {
		t.Errorf("readers starved: %.0f MB/s", read)
	}
	// Write cost should have risen above 1 under sustained write pressure.
	if sw.WriteCost() < 2 {
		t.Errorf("write cost = %.1f, should rise under fragmented writes", sw.WriteCost())
	}
}

func TestSwitchKeepsDeviceLatencyBounded(t *testing.T) {
	// The congestion controller should keep EWMA device latency around the
	// threshold range even with far more offered load than the device
	// serves (16 deep-queued 4KB writers on fragmented flash).
	loop, _, sw := rig(t, ssd.Fragmented)
	profiles := make([]workload.Profile, 8)
	for i := range profiles {
		profiles[i] = workload.Profile{Name: "w", ReadRatio: 0, IOSize: 4096, QD: 32}
	}
	runWorkers(loop, sw, profiles, 2<<30, 1*sim.Second, 2*sim.Second)
	_, wmon := sw.Monitors()
	ew := wmon.EWMA()
	t.Logf("write EWMA under saturation: %.0fus (thresh max %dus)", ew/1e3, DefaultConfig().Latency.ThreshMax/1000)
	if ew > 3*float64(DefaultConfig().Latency.ThreshMax) {
		t.Errorf("device latency uncontrolled: EWMA %.0fus", ew/1e3)
	}
}

func TestSwitchWriteCostDropsWhenWritesLight(t *testing.T) {
	// §3.4/§5.5: a single rate-limited writer is absorbed by the SSD write
	// buffer; the estimator should ride the cost down toward 1. (On the
	// fragmented device the sustainable random-write rate is ~235 MB/s, so
	// a 60 MB/s writer stays comfortably inside the buffer's draining
	// capability, exactly the Fig 9 first-writer scenario.)
	loop, _, sw := rig(t, ssd.Fragmented)
	ws := runWorkers(loop, sw, []workload.Profile{
		{Name: "w", ReadRatio: 0, IOSize: 4096, QD: 4, RateLimitBps: 60e6},
		{Name: "r", ReadRatio: 1, IOSize: 4096, QD: 16},
	}, 2<<30, 1*sim.Second, 1*sim.Second)
	t.Logf("light-writer cost = %.1f, writer bw = %.0f MB/s", sw.WriteCost(), ws[0].BandwidthMBps())
	if sw.WriteCost() > 2 {
		t.Errorf("write cost = %.1f, should decay toward 1 for buffered writes", sw.WriteCost())
	}
	if bw := ws[0].BandwidthMBps(); bw < 50 {
		t.Errorf("rate-limited writer got %.0f MB/s, want ~60", bw)
	}
}

func TestSwitchCreditReflectsSlotCompletion(t *testing.T) {
	loop, _, sw := rig(t, ssd.Clean)
	tn := nvme.NewTenant(0, "t")
	sw.Register(tn)
	w := workload.NewWorker(loop, sim.NewRNG(3),
		workload.Profile{Name: "t", ReadRatio: 1, IOSize: 4096, QD: 16, Span: 1 << 30},
		tn, workload.SchedTarget{S: sw})
	var lastCredit uint32
	w.OnDone = func(io *nvme.IO, cpl nvme.Completion) { lastCredit = cpl.Credit }
	w.Start(loop.Now() + 200*sim.Millisecond)
	loop.Run()
	// Single tenant, 8 slots, 32 x 4KB per slot → credit 256.
	if lastCredit != 256 {
		t.Errorf("credit = %d, want 256", lastCredit)
	}
	if sw.Credit(tn) != 256 {
		t.Errorf("target-side credit = %d, want 256", sw.Credit(tn))
	}
}

func TestSwitchRejectsMalformedIO(t *testing.T) {
	loop, _, sw := rig(t, ssd.Fresh)
	tn := nvme.NewTenant(0, "t")
	sw.Register(tn)
	var status nvme.Status
	io := &nvme.IO{Op: nvme.OpRead, Offset: 1, Size: 4096, Tenant: tn,
		Done: func(_ *nvme.IO, cpl nvme.Completion) { status = cpl.Status }}
	sw.Enqueue(io)
	loop.Run()
	if status != nvme.StatusInvalidLBA {
		t.Fatalf("status = %v, want invalid LBA", status)
	}
}

func TestSwitchViewExposesHeadroom(t *testing.T) {
	loop, _, sw := rig(t, ssd.Clean)
	runWorkers(loop, sw, []workload.Profile{
		{Name: "r", ReadRatio: 1, IOSize: 128 << 10, QD: 8},
	}, 2<<30, 200*sim.Millisecond, 500*sim.Millisecond)
	v := sw.View()
	if v.TargetRateBps <= 0 || v.ReadShareBps <= 0 || v.WriteShareBps <= 0 {
		t.Fatalf("view not populated: %+v", v)
	}
	if v.ReadShareBps+v.WriteShareBps > v.TargetRateBps*1.01 {
		t.Fatalf("shares exceed target: %+v", v)
	}
	if v.ReadEWMAUs <= 0 {
		t.Fatalf("read EWMA missing: %+v", v)
	}
}
