package fabric

import (
	"testing"

	"gimbal/internal/fault"
	"gimbal/internal/nvme"
	"gimbal/internal/sim"
	"gimbal/internal/ssd"
)

// recoveryRig builds a loop + null-device gimbal target + one session.
func recoveryRig(t *testing.T, scheme Scheme, devDelay int64) (*sim.Loop, *Target, *Session) {
	t.Helper()
	loop := sim.NewLoop()
	dev := ssd.NewNull(loop, 1<<30, devDelay)
	tgt := NewTarget(loop, []ssd.Device{dev}, DefaultTargetConfig(scheme))
	sess := tgt.Connect(nvme.NewTenant(1, "t1"), 0)
	return loop, tgt, sess
}

func roundTrip(t *testing.T, loop *sim.Loop, sess *Session, n int) (ok, errs int, statuses []nvme.Status) {
	t.Helper()
	for i := 0; i < n; i++ {
		io := &nvme.IO{Op: nvme.OpRead, Offset: int64(i) * 4096, Size: 4096,
			Done: func(io *nvme.IO, cpl nvme.Completion) {
				statuses = append(statuses, cpl.Status)
				if cpl.Status == nvme.StatusOK {
					ok++
				} else {
					errs++
				}
			}}
		sess.Submit(io)
	}
	loop.Run()
	return ok, errs, statuses
}

// TestManagedPathHealthyEquivalent asserts the managed path with no faults
// completes everything OK, just like the legacy path.
func TestManagedPathHealthyEquivalent(t *testing.T) {
	loop, _, sess := recoveryRig(t, SchemeGimbal, 50*sim.Microsecond)
	sess.SetRetryPolicy(DefaultRetryPolicy())
	ok, errs, _ := roundTrip(t, loop, sess, 200)
	if ok != 200 || errs != 0 {
		t.Fatalf("healthy managed path: ok=%d errs=%d, want 200/0", ok, errs)
	}
	if sess.Retries != 0 || sess.Timeouts != 0 {
		t.Fatalf("healthy run counted retries=%d timeouts=%d", sess.Retries, sess.Timeouts)
	}
}

// TestRetryRecoversDroppedFrames arms a 100% drop window shorter than the
// retry budget and asserts every IO still completes OK via reissue.
func TestRetryRecoversDroppedFrames(t *testing.T) {
	loop, _, sess := recoveryRig(t, SchemeGimbal, 50*sim.Microsecond)
	// Both directions can drop (p_ok per attempt ≈ 0.36), so the budget
	// must be deep for all 300 IOs to make it through.
	rp := RetryPolicy{Timeout: 500 * sim.Microsecond, MaxRetries: 20,
		Backoff: 100 * sim.Microsecond, BackoffCap: 1 * sim.Millisecond}
	sess.SetRetryPolicy(rp)
	lf := fault.NewLinkFaults(42)
	sess.ArmLinkFaults(lf)
	lf.SetDrop(0.4)

	ok, errs, _ := roundTrip(t, loop, sess, 300)
	if errs != 0 {
		t.Fatalf("40%% drop with deep retry budget: %d IOs errored", errs)
	}
	if ok != 300 {
		t.Fatalf("ok = %d, want 300", ok)
	}
	if sess.Retries == 0 {
		t.Fatalf("lossy link produced no retries")
	}
	if lf.Drops == 0 {
		t.Fatalf("drop fault never fired")
	}
}

// TestRetryExhaustionTimesOut makes the link a black hole and asserts IOs
// complete with StatusTimeout after the full retry budget.
func TestRetryExhaustionTimesOut(t *testing.T) {
	loop, _, sess := recoveryRig(t, SchemeGimbal, 50*sim.Microsecond)
	rp := RetryPolicy{Timeout: 200 * sim.Microsecond, MaxRetries: 2,
		Backoff: 50 * sim.Microsecond, BackoffCap: 200 * sim.Microsecond}
	sess.SetRetryPolicy(rp)
	lf := fault.NewLinkFaults(42)
	sess.ArmLinkFaults(lf)
	lf.SetDrop(1)

	start := loop.Now()
	_, errs, statuses := roundTrip(t, loop, sess, 4)
	if errs != 4 {
		t.Fatalf("black-hole link: errs = %d, want 4", errs)
	}
	for _, st := range statuses {
		if st != nvme.StatusTimeout {
			t.Fatalf("status = %v, want StatusTimeout", st)
		}
	}
	// 3 attempts × 200µs deadline + 2 backoffs: bounded, not hung.
	if took := loop.Now() - start; took > 10*sim.Millisecond {
		t.Fatalf("timeout resolution took %d ns", took)
	}
	if sess.Timeouts == 0 {
		t.Fatalf("no timeouts counted")
	}
}

// TestBackoffDelaySaturates: the doubled backoff never wraps. Uncapped, or
// capped above 2^62 ns, every delay over attempts 1–100 is positive and none
// is shorter than the one before (a wrapped delay reads as "reissue now").
// The default policy keeps its 250µs…4ms ladder.
func TestBackoffDelaySaturates(t *testing.T) {
	for _, limit := range []int64{0, 1<<62 + 1} {
		rp := RetryPolicy{Backoff: 250 * sim.Microsecond, BackoffCap: limit}
		prev := int64(0)
		for attempt := 1; attempt <= 100; attempt++ {
			d := rp.backoffDelay(attempt)
			if d <= 0 || d < prev {
				t.Fatalf("cap %d: attempt %d waits %d ns after %d ns", limit, attempt, d, prev)
			}
			prev = d
		}
	}
	def := DefaultRetryPolicy()
	for i, want := range []int64{250e3, 500e3, 1e6, 2e6, 4e6, 4e6} {
		if got := def.backoffDelay(i + 1); got != want {
			t.Errorf("default policy, attempt %d: %d ns, want %d", i+1, got, want)
		}
	}
}

// TestDuplicateFramesDeduped arms aggressive duplication and asserts each
// logical IO completes exactly once, with the extras counted as late
// replies.
func TestDuplicateFramesDeduped(t *testing.T) {
	loop, _, sess := recoveryRig(t, SchemeGimbal, 50*sim.Microsecond)
	sess.SetRetryPolicy(DefaultRetryPolicy())
	lf := fault.NewLinkFaults(42)
	sess.ArmLinkFaults(lf)
	lf.SetDuplicate(1)

	completions := 0
	for i := 0; i < 100; i++ {
		io := &nvme.IO{Op: nvme.OpRead, Offset: int64(i) * 4096, Size: 4096,
			Done: func(io *nvme.IO, cpl nvme.Completion) { completions++ }}
		sess.Submit(io)
	}
	loop.Run()
	if completions != 100 {
		t.Fatalf("each IO must complete exactly once: %d completions for 100 IOs", completions)
	}
	if lf.Dups != 100 {
		t.Fatalf("Dups = %d, want 100", lf.Dups)
	}
	if sess.LateReplies == 0 {
		t.Fatalf("duplicated frames produced no late replies")
	}
}

// TestJitterReordersWithoutLoss arms delay jitter (which reorders frames)
// and asserts nothing is lost or double-completed.
func TestJitterReordersWithoutLoss(t *testing.T) {
	loop, _, sess := recoveryRig(t, SchemeGimbal, 50*sim.Microsecond)
	sess.SetRetryPolicy(DefaultRetryPolicy())
	lf := fault.NewLinkFaults(42)
	sess.ArmLinkFaults(lf)
	lf.SetDelay(20 * sim.Microsecond)
	lf.SetJitter(200 * sim.Microsecond)

	ok, errs, _ := roundTrip(t, loop, sess, 300)
	if ok != 300 || errs != 0 {
		t.Fatalf("jittered link: ok=%d errs=%d, want 300/0", ok, errs)
	}
}

// TestDisconnectReclaimsCredits is the acceptance-criteria assertion: a
// disconnected tenant's vslot credits are fully reclaimed and surviving
// tenants regain the whole slot allotment.
func TestDisconnectReclaimsCredits(t *testing.T) {
	loop := sim.NewLoop()
	dev := ssd.NewNull(loop, 1<<30, 500*sim.Microsecond)
	tgt := NewTarget(loop, []ssd.Device{dev}, DefaultTargetConfig(SchemeGimbal))
	t1, t2 := nvme.NewTenant(1, "alive"), nvme.NewTenant(2, "dead")
	s1, s2 := tgt.Connect(t1, 0), tgt.Connect(t2, 0)
	sw := tgt.Pipeline(0).Gimbal

	var okAlive int
	keepAlive := func(s *Session, tn *nvme.Tenant, until int64) {
		var submit func()
		submit = func() {
			io := &nvme.IO{Op: nvme.OpRead, Size: 131072,
				Done: func(io *nvme.IO, cpl nvme.Completion) {
					if cpl.Status == nvme.StatusOK && tn == t1 {
						okAlive++
					}
					if loop.Now() < until {
						submit()
					}
				}}
			s.Submit(io)
		}
		for i := 0; i < 8; i++ {
			submit()
		}
	}
	keepAlive(s1, t1, 100*sim.Millisecond)
	keepAlive(s2, t2, 20*sim.Millisecond)

	loop.RunUntil(10 * sim.Millisecond)
	if got := sw.Credit(t2); got == 0 {
		t.Fatalf("tenant 2 should hold credit before disconnect")
	}
	survivorBefore := sw.Credit(t1) // half the slots while both contend

	loop.At(20*sim.Millisecond, func() { s2.Disconnect() })
	loop.RunUntil(30 * sim.Millisecond)

	if got := sw.Credit(t2); got != 0 {
		t.Fatalf("disconnected tenant still advertises credit %d", got)
	}
	if !s2.Closed() {
		t.Fatalf("session not closed")
	}
	if sw.DRR().Registered(t2) {
		t.Fatalf("disconnected tenant still registered in the DRR")
	}

	loop.Run()
	// Full reclaim: the survivor's slot allotment doubles (4 → 8 of the 8
	// MaxSlots), so its advertised credit doubles too (the per-slot count
	// has adapted to 1 for 128KB IOs).
	slots := sw.DRR().Slots(t1)
	if slots == nil {
		t.Fatalf("survivor lost slot state")
	}
	if got := slots.Credit(); got != 2*survivorBefore {
		t.Fatalf("survivor credit = %d, want %d (double its contended share %d)",
			got, 2*survivorBefore, survivorBefore)
	}
	if okAlive == 0 {
		t.Fatalf("survivor made no progress")
	}
	// The tenant records are the target's own, hub or no hub: /stats lists
	// both tenants, and only the survivor takes a fair share.
	rows := tgt.StatsSnapshot().SSDs[0].Tenants
	if len(rows) != 2 || rows[0].Ops != int64(okAlive) || rows[1].Ops == 0 || rows[0].FUtil != 1 || rows[1].FUtil != 0 {
		t.Fatalf("/stats rows of an unobserved target: %+v (survivor completed %d)", rows, okAlive)
	}

	// A post-disconnect submit bounces locally with StatusAborted.
	var st nvme.Status
	s2.Submit(&nvme.IO{Op: nvme.OpRead, Size: 4096,
		Done: func(io *nvme.IO, cpl nvme.Completion) { st = cpl.Status }})
	loop.Run()
	if st != nvme.StatusAborted {
		t.Fatalf("post-disconnect submit status = %v, want StatusAborted", st)
	}
}

// TestDisconnectAbortsQueuedIOs disconnects a deeply queued session and
// asserts every outstanding IO resolves (no hang, no double completion).
func TestDisconnectAbortsQueuedIOs(t *testing.T) {
	loop := sim.NewLoop()
	dev := ssd.NewNull(loop, 1<<30, 2*sim.Millisecond)
	tgt := NewTarget(loop, []ssd.Device{dev}, DefaultTargetConfig(SchemeGimbal))
	tn := nvme.NewTenant(1, "t")
	sess := tgt.Connect(tn, 0)
	sess.SetRetryPolicy(RetryPolicy{Timeout: 20 * sim.Millisecond, MaxRetries: 1,
		Backoff: 100 * sim.Microsecond, BackoffCap: 1 * sim.Millisecond})

	resolved := 0
	aborted := 0
	for i := 0; i < 64; i++ {
		io := &nvme.IO{Op: nvme.OpRead, Offset: int64(i) * 131072, Size: 131072,
			Done: func(io *nvme.IO, cpl nvme.Completion) {
				resolved++
				if cpl.Status == nvme.StatusAborted {
					aborted++
				}
			}}
		sess.Submit(io)
	}
	loop.At(1*sim.Millisecond, func() { sess.Disconnect() })
	loop.Run()
	if resolved != 64 {
		t.Fatalf("resolved %d of 64 IOs after disconnect", resolved)
	}
	if aborted == 0 {
		t.Fatalf("no IOs aborted by the teardown")
	}
}
