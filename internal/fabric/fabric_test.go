package fabric

import (
	"bytes"
	"testing"
	"testing/quick"

	"gimbal/internal/nvme"
	"gimbal/internal/sim"
	"gimbal/internal/ssd"
	"gimbal/internal/workload"
)

func TestCommandCapsuleRoundTrip(t *testing.T) {
	c := &CommandCapsule{
		CID: 7, Opcode: nvme.OpWrite, Priority: nvme.PriorityLow, NSID: 3,
		SLBA: 123456, Length: 131072, Data: []byte("hello"),
	}
	buf := AppendCommand(nil, c)
	got, n, err := DecodeCommand(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Fatalf("consumed %d of %d", n, len(buf))
	}
	if got.CID != c.CID || got.Opcode != c.Opcode || got.Priority != c.Priority ||
		got.NSID != c.NSID || got.SLBA != c.SLBA || got.Length != c.Length ||
		!bytes.Equal(got.Data, c.Data) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, c)
	}
}

func TestResponseCapsuleRoundTrip(t *testing.T) {
	r := &ResponseCapsule{CID: 99, Status: nvme.StatusDeviceBusy, Credit: 256, Data: []byte{1, 2, 3}}
	buf := AppendResponse(nil, r)
	got, n, err := DecodeResponse(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Fatalf("consumed %d of %d", n, len(buf))
	}
	if got.CID != r.CID || got.Status != r.Status || got.Credit != r.Credit ||
		!bytes.Equal(got.Data, r.Data) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, r)
	}
}

func TestCapsuleDecodeErrors(t *testing.T) {
	if _, _, err := DecodeCommand([]byte{capCommand, 0}); err == nil {
		t.Fatal("short command should fail")
	}
	if _, _, err := DecodeCommand(AppendResponse(nil, &ResponseCapsule{})); err == nil {
		t.Fatal("wrong tag should fail")
	}
	c := AppendCommand(nil, &CommandCapsule{Data: []byte("abcdef")})
	if _, _, err := DecodeCommand(c[:len(c)-2]); err == nil {
		t.Fatal("truncated data should fail")
	}
	if _, _, err := DecodeResponse([]byte{capResponse}); err == nil {
		t.Fatal("short response should fail")
	}
}

// Property: any command capsule survives encode/decode, including back-to-
// back capsules in one buffer.
func TestCapsulePropertyRoundTrip(t *testing.T) {
	f := func(cid uint16, op, prio, nsid uint8, slba uint64, length uint32, data []byte) bool {
		c := &CommandCapsule{CID: cid, Opcode: nvme.Opcode(op), Priority: nvme.Priority(prio % 3),
			NSID: nsid, SLBA: slba, Length: length, Data: data}
		buf := AppendCommand(nil, c)
		buf = AppendCommand(buf, c) // second capsule back to back
		got, n, err := DecodeCommand(buf)
		if err != nil {
			return false
		}
		got2, _, err := DecodeCommand(buf[n:])
		if err != nil {
			return false
		}
		eq := func(g *CommandCapsule) bool {
			return g.CID == c.CID && g.Opcode == c.Opcode && g.SLBA == c.SLBA &&
				g.Length == c.Length && bytes.Equal(g.Data, c.Data)
		}
		return eq(got) && eq(got2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestParseScheme(t *testing.T) {
	for _, s := range []Scheme{SchemeVanilla, SchemeGimbal, SchemeReflex, SchemeFlashFQ, SchemeParda} {
		got, err := ParseScheme(s.String())
		if err != nil || got != s {
			t.Fatalf("ParseScheme(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseScheme("bogus"); err == nil {
		t.Fatal("bogus scheme should fail")
	}
}

// testTarget builds a single-SSD loopback target with the given scheme.
func testTarget(t *testing.T, loop *sim.Loop, scheme Scheme, cond ssd.Condition) *Target {
	t.Helper()
	p := ssd.DCT983()
	p.UsableBytes = 1 << 30
	dev := ssd.New(loop, p)
	dev.Precondition(cond, sim.NewRNG(1))
	return NewTarget(loop, []ssd.Device{dev}, DefaultTargetConfig(scheme))
}

func TestSessionEndToEndLatencyIncludesNetwork(t *testing.T) {
	loop := sim.NewLoop()
	tgt := testTarget(t, loop, SchemeVanilla, ssd.Clean)
	sess := tgt.Connect(nvme.NewTenant(0, "c"), 0)
	var lat int64
	start := loop.Now()
	sess.Submit(&nvme.IO{Op: nvme.OpRead, Offset: 0, Size: 4096,
		Done: func(io *nvme.IO, cpl nvme.Completion) {
			if cpl.Status != nvme.StatusOK {
				t.Errorf("status %v", cpl.Status)
			}
			lat = loop.Now() - start
		}})
	loop.Run()
	// device ~78µs + 2 × 5µs propagation + serialization.
	if lat < 85_000 || lat > 130_000 {
		t.Fatalf("e2e latency = %dus, want ~90", lat/1000)
	}
}

func TestSessionErrorCompletion(t *testing.T) {
	loop := sim.NewLoop()
	tgt := testTarget(t, loop, SchemeVanilla, ssd.Fresh)
	sess := tgt.Connect(nvme.NewTenant(0, "c"), 0)
	var status nvme.Status
	sess.Submit(&nvme.IO{Op: nvme.OpRead, Offset: 3, Size: 4096,
		Done: func(_ *nvme.IO, cpl nvme.Completion) { status = cpl.Status }})
	loop.Run()
	if status != nvme.StatusInvalidLBA {
		t.Fatalf("status = %v, want invalid LBA", status)
	}
	if sess.Errors != 1 {
		t.Fatalf("errors = %d", sess.Errors)
	}
}

func TestGimbalSessionGatesOnCredit(t *testing.T) {
	loop := sim.NewLoop()
	tgt := testTarget(t, loop, SchemeGimbal, ssd.Clean)
	sess := tgt.Connect(nvme.NewTenant(0, "c"), 0)
	done := 0
	// Far more than the initial credit of 32.
	for i := 0; i < 100; i++ {
		sess.Submit(&nvme.IO{Op: nvme.OpRead, Offset: int64(i) * 4096, Size: 4096,
			Done: func(*nvme.IO, nvme.Completion) { done++ }})
	}
	if sess.Pending() == 0 {
		t.Fatal("credit gate admitted everything; expected local queueing")
	}
	loop.Run()
	if done != 100 {
		t.Fatalf("completed %d of 100", done)
	}
	if sess.Pending() != 0 {
		t.Fatalf("pending = %d after drain", sess.Pending())
	}
	// Credit should have been refreshed upward by completed slots.
	if sess.Headroom() <= 32 {
		t.Fatalf("headroom = %d, want credit growth past initial 32", sess.Headroom())
	}
}

func TestPardaSessionAdaptsWindow(t *testing.T) {
	loop := sim.NewLoop()
	tgt := testTarget(t, loop, SchemeParda, ssd.Clean)
	tn := nvme.NewTenant(0, "c")
	sess := tgt.Connect(tn, 0)
	w := workload.NewWorker(loop, sim.NewRNG(2),
		workload.Profile{Name: "c", ReadRatio: 1, IOSize: 4096, QD: 64, Span: 1 << 30},
		tn, sess)
	w.Start(200 * sim.Millisecond)
	loop.Run()
	// Low observed latency → the PARDA window should have grown past its
	// initial 4.
	if h := sess.Headroom(); h <= 0 {
		t.Fatalf("headroom = %d, want positive window", h)
	}
	if w.ReadLat.Count() == 0 {
		t.Fatal("no IOs completed")
	}
}

func TestCPUModelBoundsThroughput(t *testing.T) {
	// With one slow core and a NULL-fast device, IOPS must be bounded by
	// 1/(submit+complete) — the §2.4 wimpy-core ceiling.
	loop := sim.NewLoop()
	dev := ssd.NewNull(loop, 1<<30, 1000)
	cfg := DefaultTargetConfig(SchemeVanilla)
	cfg.CPU = NewCPU(1, 600, 400) // 1µs per IO round trip
	tgt := NewTarget(loop, []ssd.Device{dev}, cfg)
	tn := nvme.NewTenant(0, "c")
	sess := tgt.Connect(tn, 0)
	w := workload.NewWorker(loop, sim.NewRNG(2),
		workload.Profile{Name: "c", ReadRatio: 1, IOSize: 4096, QD: 64, Span: 1 << 30},
		tn, sess)
	w.Start(100 * sim.Millisecond)
	loop.Run()
	iops := float64(w.ReadLat.Count()) / 0.1
	if iops > 1.1e6 {
		t.Fatalf("IOPS = %.0f, want bounded by ~1M (1µs/IO core)", iops)
	}
	if iops < 0.7e6 {
		t.Fatalf("IOPS = %.0f, core should be nearly saturated", iops)
	}
}

// TestCPUModelChargesExtraOnce: on an idle core an IO's core time is
// submit + complete + the data path both ways + ExtraPerIO, which it pays
// once (Fig 16's added cost is per IO, not per event).
func TestCPUModelChargesExtraOnce(t *testing.T) {
	doneAt := func(cpu *CPUModel) int64 {
		loop := sim.NewLoop()
		cfg := DefaultTargetConfig(SchemeVanilla)
		cfg.CPU = cpu
		tgt := NewTarget(loop, []ssd.Device{ssd.NewNull(loop, 1<<30, 1000)}, cfg)
		tn := nvme.NewTenant(0, "c")
		rec := tgt.Register(0, tn)
		at := int64(-1)
		tgt.Ingress(rec, &nvme.IO{Op: nvme.OpRead, Size: 4096, Tenant: tn,
			Done: func(*nvme.IO, nvme.Completion) { at = loop.Now() }})
		loop.Run()
		return at
	}
	cpu := NewCPU(1, 600, 400)
	cpu.BytePs, cpu.ExtraPerIO = 300, 5000
	want := int64(600 + 400 + 2*(4096*300/1000) + 5000)
	if got := doneAt(cpu) - doneAt(nil); got != want {
		t.Fatalf("one IO's core time = %d ns, want %d (ExtraPerIO once)", got, want)
	}
}

func TestCPUModelMoreCoresMoreThroughput(t *testing.T) {
	measure := func(cores int) float64 {
		loop := sim.NewLoop()
		dev := ssd.NewNull(loop, 1<<30, 1000)
		cfg := DefaultTargetConfig(SchemeVanilla)
		cfg.CPU = NewCPU(cores, 600, 400)
		tgt := NewTarget(loop, []ssd.Device{dev}, cfg)
		tn := nvme.NewTenant(0, "c")
		sess := tgt.Connect(tn, 0)
		w := workload.NewWorker(loop, sim.NewRNG(2),
			workload.Profile{Name: "c", ReadRatio: 1, IOSize: 4096, QD: 256, Span: 1 << 30},
			tn, sess)
		w.Start(50 * sim.Millisecond)
		loop.Run()
		return float64(w.ReadLat.Count()) / 0.05
	}
	one, four := measure(1), measure(4)
	if four < 2.5*one {
		t.Fatalf("4 cores = %.0f IOPS vs 1 core = %.0f; want ~4x scaling", four, one)
	}
}

func TestNetworkLinkSerialization(t *testing.T) {
	cfg := DefaultNet()
	l := link{cfg: cfg}
	// Two 128KB transfers back to back: the second is delayed by the
	// first's serialization (~10.5µs at 100Gbps).
	t1 := l.send(0, 128<<10)
	t2 := l.send(0, 128<<10)
	if t2 <= t1 {
		t.Fatalf("no serialization: %d vs %d", t2, t1)
	}
	ser := int64(128<<10+cfg.CapsuleBytes) * 1e9 / cfg.LinkBps
	if want := t1 + ser; t2 != want {
		t.Fatalf("t2 = %d, want %d", t2, want)
	}
}
