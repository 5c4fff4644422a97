package ratectl

import (
	"math"
	"testing"
	"testing/quick"

	"gimbal/internal/core/latmon"
)

func TestRefillSplitsByWriteCost(t *testing.T) {
	cfg := DefaultConfig()
	e := New(cfg, 0)
	e.readTok, e.writeTok = 0, 0
	e.targetRate = 100e6   // 100 MB/s
	e.Refill(1_000_000, 9) // 1ms → 100KB total
	r, w := e.Tokens()
	if math.Abs(r-90_000) > 1 || math.Abs(w-10_000) > 1 {
		t.Fatalf("tokens = %.0f/%.0f, want 90000/10000", r, w)
	}
}

func TestRefillOverflowTransfers(t *testing.T) {
	cfg := DefaultConfig()
	e := New(cfg, 0)
	e.readTok = float64(cfg.BucketMax) // read already full
	e.writeTok = 0
	e.targetRate = 100e6
	e.Refill(1_000_000, 9)
	r, w := e.Tokens()
	if r != float64(cfg.BucketMax) {
		t.Fatalf("read bucket = %v, want capped at %d", r, cfg.BucketMax)
	}
	// Read's 90KB overflow spills into write: 10KB + 90KB.
	if math.Abs(w-100_000) > 1 {
		t.Fatalf("write bucket = %v, want 100000 (overflow transferred)", w)
	}
}

func TestBothBucketsCapped(t *testing.T) {
	cfg := DefaultConfig()
	e := New(cfg, 0)
	e.targetRate = cfg.MaxRate
	e.Refill(1_000_000_000, 3) // 1s at max rate: floods both
	r, w := e.Tokens()
	if r > float64(cfg.BucketMax) || w > float64(cfg.BucketMax) {
		t.Fatalf("buckets exceeded cap: %v/%v", r, w)
	}
}

func TestTryConsume(t *testing.T) {
	e := New(DefaultConfig(), 0)
	if !e.TryConsume(false, 128<<10) {
		t.Fatal("full bucket refused 128KB read")
	}
	if !e.TryConsume(false, 128<<10) {
		t.Fatal("bucket refused second 128KB read")
	}
	if e.TryConsume(false, 4096) {
		t.Fatal("empty bucket granted a read")
	}
	if !e.TryConsume(true, 4096) {
		t.Fatal("write bucket should be untouched")
	}
}

func TestDeficitAndNanosUntil(t *testing.T) {
	e := New(DefaultConfig(), 0)
	e.readTok = 1000
	if d := e.Deficit(false, 4096); d != 3096 {
		t.Fatalf("deficit = %v, want 3096", d)
	}
	if d := e.Deficit(false, 500); d != 0 {
		t.Fatalf("deficit = %v, want 0", d)
	}
	e.targetRate = 100e6
	ns := e.NanosUntil(3096, false, 1)
	// read share at cost 1 is 1/2 → 50MB/s → 3096B ≈ 62µs.
	if ns < 50_000 || ns > 75_000 {
		t.Fatalf("NanosUntil = %dns, want ~62µs", ns)
	}
	if e.NanosUntil(0, false, 1) != 0 {
		t.Fatal("zero deficit should need zero wait")
	}
}

func TestCompletionAdjustsRate(t *testing.T) {
	cfg := DefaultConfig()
	e := New(cfg, 0)
	base := e.TargetRate()
	e.OnCompletion(1000, 4096, latmon.CongestionAvoidance)
	if e.TargetRate() != base+4096 {
		t.Fatalf("CA should add size: %v", e.TargetRate())
	}
	e.OnCompletion(2000, 4096, latmon.Congested)
	if e.TargetRate() != base {
		t.Fatalf("congested should subtract size: %v", e.TargetRate())
	}
	e.OnCompletion(3000, 4096, latmon.Underutilized)
	if e.TargetRate() != base+8*4096 {
		t.Fatalf("underutilized should add beta*size: %v", e.TargetRate())
	}
}

func TestOverloadSnapsToCompletionRateAndDiscardsTokens(t *testing.T) {
	cfg := DefaultConfig()
	e := New(cfg, 0)
	// Build a completion-rate window: 10MB completed over 10ms = 1GB/s.
	now := int64(0)
	for i := 0; i < 100; i++ {
		now += 100_000
		e.OnCompletion(now, 100_000, latmon.CongestionAvoidance)
	}
	if cr := e.CompletionRate(); math.Abs(cr-1e9) > 0.3e9 {
		t.Fatalf("completion rate = %v, want ~1e9", cr)
	}
	e.targetRate = 3e9 // way above what completes
	e.OnCompletion(now+1000, 100_000, latmon.Overloaded)
	r, w := e.Tokens()
	if r != 0 || w != 0 {
		t.Fatalf("tokens not discarded on overload: %v/%v", r, w)
	}
	if e.TargetRate() >= 1.5e9 {
		t.Fatalf("rate = %v, should snap to completion rate minus size", e.TargetRate())
	}
	if e.TargetRate() > e.CompletionRate() {
		t.Fatalf("rate %v should be below completion rate %v", e.TargetRate(), e.CompletionRate())
	}
}

func TestRateClamped(t *testing.T) {
	cfg := DefaultConfig()
	e := New(cfg, 0)
	e.targetRate = cfg.MinRate
	for i := 0; i < 100; i++ {
		e.OnCompletion(int64(i), 1<<20, latmon.Congested)
	}
	if e.TargetRate() < cfg.MinRate {
		t.Fatalf("rate fell below floor: %v", e.TargetRate())
	}
	for i := 0; i < 100000; i++ {
		e.OnCompletion(int64(i), 1<<20, latmon.Underutilized)
	}
	if e.TargetRate() > cfg.MaxRate {
		t.Fatalf("rate exceeded ceiling: %v", e.TargetRate())
	}
}

// Property: token conservation — refills never create more tokens than
// rate*dt (within float tolerance), and TryConsume never leaves a bucket
// negative.
func TestTokenConservationProperty(t *testing.T) {
	f := func(steps []uint16, cost8 uint8) bool {
		cfg := DefaultConfig()
		e := New(cfg, 0)
		e.readTok, e.writeTok = 0, 0
		cost := 1 + float64(cost8%16)
		now := int64(0)
		var minted float64
		for _, s := range steps {
			dt := int64(s) * 1000
			now += dt
			minted += e.targetRate * float64(dt) / 1e9
			e.Refill(now, cost)
			r, w := e.Tokens()
			if r < 0 || w < 0 || r+w > minted+1 {
				return false
			}
			e.TryConsume(false, 4096)
			e.TryConsume(true, 4096)
			r, w = e.Tokens()
			if r < 0 || w < 0 {
				return false
			}
			minted = r + w // rebase after consumption
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestOversizeIORunsADeficit: an IO larger than a bucket can ever hold is
// admitted once the bucket is full and leaves it in debt; nothing else of the
// class passes until the refill has repaid the debt and the next IO's own
// size on top, and an overload does not forgive it.
func TestOversizeIORunsADeficit(t *testing.T) {
	for _, single := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.SingleBucket = single
		full := float64(cfg.BucketMax)
		if single {
			full *= 2
		}
		size := int(2 * full)
		e := New(cfg, 0)
		e.Refill(second, 1) // a second at the initial rate fills every bucket
		if !e.TryConsume(false, 4096) || e.TryConsume(false, size) {
			t.Fatalf("single=%v: a bucket 4 KiB short of full must refuse a %d-byte read", single, size)
		}
		if d := e.Deficit(false, size); d != 4096 {
			t.Fatalf("single=%v: deficit %v from a bucket 4 KiB short of full, want 4096", single, d)
		}
		e.Refill(2*second, 1)
		if !e.TryConsume(false, size) {
			t.Fatalf("single=%v: a full bucket refused a %d-byte read: it would wait forever", single, size)
		}
		if r, _ := e.Tokens(); r != -full {
			t.Fatalf("single=%v: bucket at %v after the oversize read, want %v in debt", single, r, -full)
		}
		e.OnCompletion(2*second, size, latmon.Overloaded)
		if r, w := e.Tokens(); r != -full || w > 0 {
			t.Fatalf("single=%v: overload left the buckets at %v/%v, want the debt %v standing and no tokens", single, r, w, -full)
		}
		if e.TryConsume(false, 4096) {
			t.Fatalf("single=%v: a read passed a bucket in debt", single)
		}
		d := e.Deficit(false, 4096)
		if d != full+4096 {
			t.Fatalf("single=%v: deficit %v behind the oversize read, want %v", single, d, full+4096)
		}
		// Repay at a known rate, all of it to the read side (the write bucket
		// is full or shared): one byte short is refused, the rest admits.
		e.targetRate = 100e6
		e.writeTok = float64(cfg.BucketMax)
		now := 2*second + int64((d-1)/100e6*1e9)
		e.Refill(now, 1)
		if e.TryConsume(false, 4096) {
			t.Fatalf("single=%v: admitted before debt ÷ rate had passed", single)
		}
		e.Refill(now+1000, 1)
		if !e.TryConsume(false, 4096) {
			t.Fatalf("single=%v: still refused after debt ÷ rate", single)
		}
	}
}

const second = int64(1e9)
