package core

import (
	"testing"

	"gimbal/internal/nvme"
	"gimbal/internal/sim"
	"gimbal/internal/ssd"
	"gimbal/internal/workload"
)

// cancelOnEntry is the pump this repository had before the pacing timer
// became re-armable, rebuilt around the current one for use as a test
// oracle: it cancels the timer before every entry into the switch, so the
// pump below it never finds one pending and always arms afresh, and the
// oracle rig arms with the clock's plain At — Cancel, then At, per pass.
type cancelOnEntry struct{ *Switch }

func (s cancelOnEntry) Enqueue(io *nvme.IO) {
	s.timer.Cancel()
	s.Switch.Enqueue(io)
}

type devDone struct {
	at, offset int64
	tenant     int
	op         nvme.Opcode
}

// pacedNullRun drives 16 tenants × QD32 of 4KB 90/10 IO through a switch
// over a NULL device — the rate pacer is the only thing holding IOs back —
// and returns the device-completion trace, the switch's counters and the
// most cancelled entries the event queue held at any completion.
func pacedNullRun(oracle bool) (trace []devDone, st Stats, maxTombstones int) {
	loop := sim.NewLoop()
	sw := New(loop, ssd.NewNull(loop, 8<<30, 100), DefaultConfig())
	var target nvme.Scheduler = sw
	if oracle {
		target = cancelOnEntry{sw}
		sw.armTimer = loop.At
	}
	sw.devDoneFn = func(io *nvme.IO) {
		trace = append(trace, devDone{loop.Now(), io.Offset, io.Tenant.ID, io.Op})
		if n := loop.Queued() - loop.Pending(); n > maxTombstones {
			maxTombstones = n
		}
		if oracle {
			sw.timer.Cancel()
		}
		sw.onDeviceDone(io)
	}
	rng := sim.NewRNG(61)
	stop := 250 * sim.Millisecond
	for i := 0; i < 16; i++ {
		tn := nvme.NewTenant(i, "mix4k")
		sw.Register(tn)
		p := workload.Profile{Name: tn.Name, ReadRatio: 0.9, IOSize: 4096, QD: 32, Span: 8 << 30}
		workload.NewWorker(loop, rng.Fork(), p, tn, workload.SchedTarget{S: target}).Start(stop)
	}
	loop.RunUntil(stop)
	loop.Run()
	return trace, sw.Stats(), maxTombstones
}

// TestPacerReschedulesInPlace pins both halves of the re-armable pacing
// timer: the simulation cannot tell it from cancelling and arming with At
// per pump pass (identical device-completion trace), and the pacer leaves
// nothing dead in the event queue — its timer is born on the side heap, is
// re-keyed there and fires from there.
func TestPacerReschedulesInPlace(t *testing.T) {
	got, st, tombstones := pacedNullRun(false)
	want, _, oracleTombstones := pacedNullRun(true)
	if len(got) < 10_000 {
		t.Fatalf("only %d IOs completed: the rig is not running", len(got))
	}
	if st.PacingStalls < 2*st.Completions {
		t.Fatalf("%d stalled pump passes over %d completions, want >= 2 per IO: the rig is not paced, so the test shows nothing",
			st.PacingStalls, st.Completions)
	}
	if tombstones != 0 {
		t.Errorf("Queued() exceeded Pending() by %d at a device completion (oracle: %d), want the two equal throughout", tombstones, oracleTombstones)
	}
	if len(got) != len(want) {
		t.Fatalf("%d completions, oracle %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("completion %d = %+v, oracle %+v", i, got[i], want[i])
		}
	}
	t.Logf("%d completions identical, %.2f stalled passes per IO; peak tombstones %d, oracle %d",
		len(got), float64(st.PacingStalls)/float64(st.Completions), tombstones, oracleTombstones)
}

// TestPacerAdmitsOversizeIO: a read of twice the token bucket completes
// instead of wedging its tenant, and the 4 KiB read behind it waits for the
// pacer to repay the debt — about debt ÷ rate, the rate being between the
// read share the pump timer assumes and the whole target rate the refill
// delivers while the write bucket is full and spilling over.
func TestPacerAdmitsOversizeIO(t *testing.T) {
	loop := sim.NewLoop()
	cfg := DefaultConfig()
	sw := New(loop, ssd.NewNull(loop, 8<<30, 100), cfg)
	tn := nvme.NewTenant(0, "jumbo")
	sw.Register(tn)
	big := int(2 * cfg.Rate.BucketMax)
	var bigAt, smallAt int64
	for _, io := range []*nvme.IO{
		{Op: nvme.OpRead, Size: big, Tenant: tn, Done: func(*nvme.IO, nvme.Completion) { bigAt = loop.Now() }},
		{Op: nvme.OpRead, Offset: 1 << 20, Size: 4096, Tenant: tn, Done: func(*nvme.IO, nvme.Completion) { smallAt = loop.Now() }},
	} {
		sw.Enqueue(io)
	}
	rate := sw.rate.TargetRate()
	loop.RunUntil(sim.Second) // bounded: before the pacer ran a deficit the pump re-armed forever
	if bigAt == 0 || smallAt == 0 {
		t.Fatalf("after 1 s: %d-byte read done at %d, the 4 KiB read behind it at %d (0 = never)", big, bigAt, smallAt)
	}
	debt := float64(big) - float64(cfg.Rate.BucketMax) + 4096
	lo, hi := int64(debt/rate*1e9), int64(debt/(rate/2)*1e9)
	if wait := smallAt - bigAt; wait < lo*9/10 || wait > hi*11/10 {
		t.Errorf("4 KiB read completed %d ns after the oversize one, want debt ÷ rate = %d..%d ns", wait, lo, hi)
	}
}

// TestUnregisterCancelsPacingTimer: a tenant torn down while the pump is
// waiting for tokens on its behalf takes the queue to empty without a pump
// pass; the pacing timer must not outlive it (on the live plane it is the one
// event a closed connection could leave on the shard).
func TestUnregisterCancelsPacingTimer(t *testing.T) {
	loop := sim.NewLoop()
	sw := New(loop, ssd.NewNull(loop, 8<<30, 100), DefaultConfig())
	stay, leave := nvme.NewTenant(0, "stay"), nvme.NewTenant(1, "leave")
	sw.Register(stay)
	sw.Register(leave)
	for i := 0; i < 8; i++ { // 1 MiB against a 256 KiB bucket: the pump stalls
		sw.Enqueue(&nvme.IO{Op: nvme.OpRead, Offset: int64(i) << 20, Size: 128 << 10, Tenant: leave, Done: func(*nvme.IO, nvme.Completion) {}})
	}
	sw.Enqueue(&nvme.IO{Op: nvme.OpRead, Size: 4096, Tenant: stay, Done: func(*nvme.IO, nvme.Completion) {}})
	if !sw.timer.Active() {
		t.Fatal("the pump did not stall on tokens: the test shows nothing")
	}
	sw.Unregister(leave)
	if !sw.timer.Active() {
		t.Fatal("pacing timer cancelled with another tenant's IO still queued")
	}
	sw.Unregister(stay)
	if sw.timer.Active() {
		t.Fatal("pacing timer still armed over an empty queue")
	}
}
