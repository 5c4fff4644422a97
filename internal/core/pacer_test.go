package core

import (
	"testing"

	"gimbal/internal/nvme"
	"gimbal/internal/sim"
	"gimbal/internal/ssd"
	"gimbal/internal/workload"
)

type devDone struct {
	at, offset int64
	tenant     int
	op         nvme.Opcode
}

// pacedRun is what pacedNullRun saw: the device-completion trace, the
// switch's counters, the IOs that waited for tokens after winning their DRR
// round, the pacing timer's fires and the most cancelled entries the event
// queue held at any completion.
type pacedRun struct {
	trace         []devDone
	st            Stats
	paced, fires  int
	maxTombstones int
}

// pacedNullRun drives 16 tenants × QD32 of 4KB 90/10 IO through a switch
// over a NULL device — the rate pacer is the only thing holding IOs back.
// With movable false the pacing timer is armed on the main heap (the
// clock's At) instead of where it is re-keyed.
func pacedNullRun(movable bool) pacedRun {
	loop := sim.NewLoop()
	sw := New(loop, ssd.NewNull(loop, 8<<30, 100), DefaultConfig())
	if !movable {
		sw.armTimer = loop.At
	}
	var r pacedRun
	sw.pumpFn = func() {
		r.fires++
		sw.pump()
	}
	sw.devDoneFn = func(io *nvme.IO) {
		r.trace = append(r.trace, devDone{loop.Now(), io.Offset, io.Tenant.ID, io.Op})
		if io.DevSubmit > io.Admit {
			r.paced++
		}
		if n := loop.Queued() - loop.Pending(); n > r.maxTombstones {
			r.maxTombstones = n
		}
		sw.onDeviceDone(io)
	}
	runMix4k(loop, sw, workload.SchedTarget{S: sw}, 250*sim.Millisecond)
	r.st = sw.Stats()
	return r
}

// runMix4k registers 16 tenants × QD32 of 4KB 90/10 IO with the switch,
// submits through target until stop and drains the loop.
func runMix4k(loop *sim.Loop, sw *Switch, target workload.Target, stop int64) {
	rng := sim.NewRNG(61)
	for i := 0; i < 16; i++ {
		tn := nvme.NewTenant(i, "mix4k")
		sw.Register(tn)
		p := workload.Profile{Name: tn.Name, ReadRatio: 0.9, IOSize: 4096, QD: 32, Span: 8 << 30}
		workload.NewWorker(loop, rng.Fork(), p, tn, target).Start(stop)
	}
	loop.RunUntil(stop)
	loop.Run()
}

// TestPacerReschedulesInPlace pins both halves of the re-armable pacing
// timer: the simulation cannot tell it from a timer armed on the main heap
// (identical device-completion trace; Timer.Reschedule is Cancel then At in
// everything the clock observes), and the pacer leaves nothing dead in the
// event queue — its timer is born on the side heap, is re-keyed there and
// fires from there — where the main-heap one leaves tombstones. The rig is
// paced: most IOs wait for tokens after winning their DRR round, and the
// timer fires for a good share of them.
func TestPacerReschedulesInPlace(t *testing.T) {
	got, want := pacedNullRun(true), pacedNullRun(false)
	n := len(got.trace)
	if n < 10_000 {
		t.Fatalf("only %d IOs completed: the rig is not running", n)
	}
	if got.paced < n*3/4 || got.fires < n/4 {
		t.Fatalf("%d of %d IOs waited for tokens and the pacing timer fired %d times, want >= 3/4 and >= 1/4 per IO: the rig is not paced, so the test shows nothing",
			got.paced, n, got.fires)
	}
	if got.maxTombstones != 0 {
		t.Errorf("Queued() exceeded Pending() by %d at a device completion, want the two equal throughout", got.maxTombstones)
	}
	if want.maxTombstones == 0 {
		t.Errorf("the timer armed on the main heap left no tombstone either: the measure cannot see one")
	}
	if n != len(want.trace) {
		t.Fatalf("%d completions, main-heap timer %d", n, len(want.trace))
	}
	for i := range got.trace {
		if got.trace[i] != want.trace[i] {
			t.Fatalf("completion %d = %+v, main-heap timer %+v", i, got.trace[i], want.trace[i])
		}
	}
	t.Logf("%d completions identical; %.2f paced, %.2f stalled passes and %.2f fires per IO; peak tombstones %d, main-heap timer %d",
		n, float64(got.paced)/float64(n), float64(got.st.PacingStalls)/float64(n), float64(got.fires)/float64(n),
		got.maxTombstones, want.maxTombstones)
}

// skipAudit stands between a switch and its traffic and runs the
// always-pass pump — the paper's, a pass on every arrival and completion —
// as an oracle: at every entry the switch answers without a pass, it makes
// that pass's decisions on the live state without their side effects (the
// refill on a copy of the rate engine; sched.DRR.Select, which has none
// when it returns a dispatchable IO at once; Admit on the copy) and checks
// that the pass would have stopped, short of tokens, on the head the switch
// recorded.
//
// It is also the clock the switch reads, and there it audits the passes
// the switch does run: one that starts from the recorded head must start
// from the IO Select would return (see Now).
type skipAudit struct {
	*sim.Loop
	t                       *testing.T
	sw                      *Switch
	arrivals, skippedArr    int
	completions, skippedCpl int
	reused                  int // passes that started from the recorded head
}

// newAudited builds a switch over dev whose entries and clock go through a
// skipAudit.
func newAudited(t *testing.T, loop *sim.Loop, dev ssd.Device, cfg Config) (*Switch, *skipAudit) {
	a := &skipAudit{Loop: loop, t: t}
	sw := New(a, dev, cfg)
	a.sw = sw
	sw.devDoneFn = func(io *nvme.IO) {
		a.completions++
		if a.entry(func() { sw.onDeviceDone(io) }) {
			a.skippedCpl++
		}
	}
	return sw, a
}

// Now implements sim.Scheduler for the audited switch. A pass reads the
// clock before anything else, so a read that finds the switch pumping with
// the stall record still standing is the start of a pass from the recorded
// head — the only such read: the pass takes the record next, and records a
// new one only as it ends. Select on the live state must return the
// record's IO.
func (a *skipAudit) Now() int64 {
	if sw := a.sw; sw != nil && sw.pumping && sw.stall.io != nil {
		a.reused++
		if head := sw.drr.Select(); head != sw.stall.io {
			a.t.Fatalf("t=%d: a pass starts from the recorded head %p (tenant %d), but Select returns %p",
				a.Loop.Now(), sw.stall.io, sw.stall.io.Tenant.ID, head)
		}
	}
	return a.Loop.Now()
}

// Submit implements workload.Target.
func (a *skipAudit) Submit(io *nvme.IO) {
	a.arrivals++
	if a.entry(func() { a.sw.Enqueue(io) }) {
		a.skippedArr++
	}
}

// entry runs one switch entry and, if it ran no pass, audits the skip. A
// pass — the entry's own, or one an IO submitted from a completion
// callback ran — either stalls, counting a pacing stall, or leaves no
// stall record.
func (a *skipAudit) entry(fn func()) (skipped bool) {
	sw := a.sw
	stalls := sw.stats.PacingStalls
	fn()
	if sw.stall.io == nil || sw.stats.PacingStalls != stalls {
		return false
	}
	e := sw.rate
	cost := sw.cost.Cost()
	e.Refill(sw.clk.Now(), cost)
	head := sw.drr.Select()
	if head != sw.stall.io {
		a.t.Fatalf("t=%d: skipped a pass whose Select returns %p, not the stalled head %p", sw.clk.Now(), head, sw.stall.io)
	}
	r, w := e.Tokens()
	if _, ok := e.Admit(head.Op.IsWrite(), head.Size, cost); ok {
		a.t.Fatalf("t=%d: skipped a pass that would admit the stalled head (%v %d B, cover at %d): rate %.0f, tokens %.1f/%.1f",
			sw.clk.Now(), head.Op, head.Size, sw.stall.coverAt, e.TargetRate(), r, w)
	}
	return true
}

// TestSkippedPassesWouldStall checks every pass the switch skips against
// the always-pass oracle (skipAudit) on two rigs, each paced at a rate that
// ramps (every completion moves it, and hardly a pass is skipped) and then
// holds at MaxRate (most are): the paced NULL rig of TestPacerReschedulesInPlace,
// run on past the ramp; and a NULL rig with 4 KiB and 128 KiB reads and
// writes, two QoS classes weighted 3:1 and every IO at a random priority,
// so Select cycles classes and priority budgets while IOs wait for tokens.
func TestSkippedPassesWouldStall(t *testing.T) {
	t.Run("paced-null", func(t *testing.T) {
		loop := sim.NewLoop()
		sw, a := newAudited(t, loop, ssd.NewNull(loop, 8<<30, 100), DefaultConfig())
		runMix4k(loop, sw, a, 500*sim.Millisecond)
		a.check(t)
	})
	t.Run("classes-priorities", func(t *testing.T) {
		loop := sim.NewLoop()
		cfg := DefaultConfig()
		cfg.Sched.ClassWeights = []int{3, 1}
		cfg.Rate.InitialRate, cfg.Rate.MaxRate = 100e6, 300e6
		sw, a := newAudited(t, loop, ssd.NewNull(loop, 8<<30, 20*sim.Microsecond), cfg)
		rng := sim.NewRNG(7)
		prio := rng.Fork()
		target := prioTarget{a, prio}
		stop := 300 * sim.Millisecond
		for i := 0; i < 8; i++ {
			tn := nvme.NewTenant(i, "mixed")
			tn.Class = i % 2
			sw.Register(tn)
			p := workload.Profile{Name: tn.Name, ReadRatio: 0.7, IOSize: 4096, QD: 16, Span: 8 << 30}
			if i%4 == 3 {
				p.IOSize, p.QD = 128<<10, 4
			}
			workload.NewWorker(loop, rng.Fork(), p, tn, target).Start(stop)
		}
		loop.RunUntil(stop)
		loop.Run()
		a.check(t)
	})
}

// TestPassesFromRecordedHead runs the recorded-head audit (skipAudit.Now)
// where the two entries that can move the head come up: a cost tick, which
// reweighs every write, and the teardown of the head's tenant. Both must
// drop the record, so that the pass after them selects afresh. The first
// rig is fragmented NAND under 128 KiB writers and 4 KiB readers in two
// QoS classes, where the write cost moves on most cost ticks while the
// pump waits for tokens; in the second, a tenant whose IO heads a stalled
// pump leaves every 10 ms.
func TestPassesFromRecordedHead(t *testing.T) {
	t.Run("nand-cost-ticks", func(t *testing.T) {
		loop := sim.NewLoop()
		p := ssd.DCT983()
		p.UsableBytes = 1 << 30
		dev := ssd.New(loop, p)
		dev.Precondition(ssd.Fragmented, sim.NewRNG(1))
		cfg := DefaultConfig()
		cfg.Sched.ClassWeights = []int{2, 1}
		sw, a := newAudited(t, loop, dev, cfg)
		rng := sim.NewRNG(5)
		stop := 400 * sim.Millisecond
		for i := 0; i < 8; i++ {
			tn := nvme.NewTenant(i, "nand")
			tn.Class = i % 2
			sw.Register(tn)
			prof := workload.Profile{Name: tn.Name, ReadRatio: 1, IOSize: 4096, QD: 16, Span: p.UsableBytes}
			if i%2 == 1 {
				prof.ReadRatio, prof.IOSize, prof.QD = 0, 128<<10, 4
			}
			workload.NewWorker(loop, rng.Fork(), prof, tn, a).Start(stop)
		}
		loop.RunUntil(stop)
		loop.Run()
		st := sw.Stats()
		t.Logf("%d cost changes in %d ticks; %d stalled passes, %d from the recorded head",
			st.CostChanges, st.CostTicks, st.PacingStalls, a.reused)
		if st.CostChanges < st.CostTicks/2 {
			t.Errorf("the write cost moved on %d of %d cost ticks: too few to audit", st.CostChanges, st.CostTicks)
		}
		a.checkReused(t)
	})
	t.Run("unregister-mid-stall", func(t *testing.T) {
		loop := sim.NewLoop()
		sw, a := newAudited(t, loop, ssd.NewNull(loop, 8<<30, 100), DefaultConfig())
		rng := sim.NewRNG(61)
		stop := 250 * sim.Millisecond
		workers := map[*nvme.Tenant]*workload.Worker{}
		for i := 0; i < 16; i++ {
			tn := nvme.NewTenant(i, "churn")
			sw.Register(tn)
			prof := workload.Profile{Name: tn.Name, ReadRatio: 0.9, IOSize: 4096, QD: 32, Span: 8 << 30}
			workers[tn] = workload.NewWorker(loop, rng.Fork(), prof, tn, a)
			workers[tn].Start(stop)
		}
		left := 0
		var leave func()
		leave = func() {
			if io := sw.stall.io; io != nil && sw.stalled(loop.Now()) {
				tn := io.Tenant
				workers[tn].Stop()
				for _, o := range sw.Unregister(tn) {
					o.Done(o, nvme.Completion{Status: nvme.StatusAborted})
				}
				left++
			}
			if loop.Now() < stop {
				loop.After(10*sim.Millisecond, leave)
			}
		}
		loop.After(10*sim.Millisecond, leave)
		loop.RunUntil(stop)
		loop.Run()
		t.Logf("%d tenants left mid-stall; %d stalled passes, %d from the recorded head", left, sw.stats.PacingStalls, a.reused)
		if left < 8 {
			t.Errorf("only %d tenants left while their IO headed a stalled pump: the test shows little", left)
		}
		a.checkReused(t)
	})
}

// prioTarget submits through the audit at a random priority.
type prioTarget struct {
	a   *skipAudit
	rng *sim.RNG
}

func (p prioTarget) Submit(io *nvme.IO) {
	io.Priority = nvme.Priority(p.rng.Intn(int(nvme.NumPriorities)))
	p.a.Submit(io)
}

// check fails a rig whose switch skipped too little, or started too few
// passes from the recorded head, for the audit to mean anything.
func (a *skipAudit) check(t *testing.T) {
	t.Logf("skipped %d of %d arrivals and %d of %d completions; %d stalled passes, %d from the recorded head",
		a.skippedArr, a.arrivals, a.skippedCpl, a.completions, a.sw.stats.PacingStalls, a.reused)
	if a.completions < 5_000 || a.skippedArr < a.arrivals/10 || a.skippedCpl < a.completions/10 {
		t.Errorf("too few skipped passes to audit")
	}
	a.checkReused(t)
}

// checkReused fails a rig where fewer than half the passes that stalled
// were followed by one that started from the recorded head.
func (a *skipAudit) checkReused(t *testing.T) {
	if a.reused == 0 || a.reused < int(a.sw.stats.PacingStalls)/2 {
		t.Errorf("%d passes started from the recorded head, against %d stalled passes: too few to audit", a.reused, a.sw.stats.PacingStalls)
	}
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
// waiting for tokens on its behalf takes the stalled head with it. The IO
// queued behind must not wait out the departed IO's deadline — the
// teardown runs a pass, and the IO is admitted when the refill covers it —
// and once the queue is empty the pacing timer must not outlive it (on the
// live plane it is the one event a closed connection could leave on the
// shard).
func TestUnregisterCancelsPacingTimer(t *testing.T) {
	loop := sim.NewLoop()
	// A slow device: no completion of the departed tenant's in-flight IOs
	// runs a pass before the waiting IO's cover time.
	sw := New(loop, ssd.NewNull(loop, 8<<30, sim.Millisecond), DefaultConfig())
	stay, leave := nvme.NewTenant(0, "stay"), nvme.NewTenant(1, "leave")
	sw.Register(stay)
	sw.Register(leave)
	for i := 0; i < 8; i++ { // 1 MiB against a 256 KiB bucket: the pump stalls
		sw.Enqueue(&nvme.IO{Op: nvme.OpRead, Offset: int64(i) << 20, Size: 128 << 10, Tenant: leave, Done: func(*nvme.IO, nvme.Completion) {}})
	}
	waiting := &nvme.IO{Op: nvme.OpRead, Size: 4096, Tenant: stay, Done: func(*nvme.IO, nvme.Completion) {}}
	sw.Enqueue(waiting)
	if !sw.timer.Active() || sw.stall.io == nil || sw.stall.io.Tenant != leave {
		t.Fatal("the pump did not stall on the leaving tenant's IO: the test shows nothing")
	}
	departed := sw.stall.coverAt
	sw.Unregister(leave)
	if !sw.timer.Active() {
		t.Fatal("pacing timer cancelled with another tenant's IO still queued")
	}
	rate := sw.rate
	wait, ok := rate.Admit(false, waiting.Size, sw.cost.Cost())
	if ok {
		t.Fatal("the bucket covers the waiting IO already: the test shows nothing")
	}
	coverAt := loop.Now() + max(wait, sim.Microsecond)
	if coverAt >= departed {
		t.Fatalf("the waiting IO's cover time %d is not before the departed head's %d: the test shows nothing", coverAt, departed)
	}
	loop.RunUntil(coverAt)
	if waiting.DevSubmit == 0 || waiting.DevSubmit > coverAt {
		t.Fatalf("the IO behind the departed head was submitted at %d (0 = not yet), want by its own cover time %d (the departed head's was %d)",
			waiting.DevSubmit, coverAt, departed)
	}
	sw.Enqueue(&nvme.IO{Op: nvme.OpRead, Offset: 1 << 20, Size: 128 << 10, Tenant: stay, Done: func(*nvme.IO, nvme.Completion) {}})
	if !sw.timer.Active() {
		t.Fatal("the pump did not stall on the second IO: the test shows nothing")
	}
	sw.Unregister(stay)
	if sw.timer.Active() {
		t.Fatal("pacing timer still armed over an empty queue")
	}
}
