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

func TestAdmit(t *testing.T) {
	e := New(DefaultConfig(), 0)
	if _, ok := e.Admit(false, 128<<10, 1); !ok {
		t.Fatal("full bucket refused 128KB read")
	}
	if _, ok := e.Admit(false, 128<<10, 1); !ok {
		t.Fatal("bucket refused second 128KB read")
	}
	if _, ok := e.Admit(false, 4096, 1); ok {
		t.Fatal("empty bucket granted a read")
	}
	if wait, ok := e.Admit(true, 4096, 1); !ok || wait != 0 {
		t.Fatalf("write bucket should be untouched: wait %d, ok %v", wait, ok)
	}
}

func TestAdmitWait(t *testing.T) {
	e := New(DefaultConfig(), 0)
	e.readTok = 1000
	e.targetRate = 100e6
	// 3096 B short; read share at cost 1 is 1/2 → 50MB/s → ≈ 62µs.
	if ns, ok := e.Admit(false, 4096, 1); ok || ns < 50_000 || ns > 75_000 {
		t.Fatalf("Admit = %dns, %v, want ~62µs, false", ns, ok)
	}
	if r, _ := e.Tokens(); r != 1000 {
		t.Fatalf("a refused IO took tokens: %v left of 1000", r)
	}
	if ns, ok := e.Admit(false, 500, 1); !ok || ns != 0 {
		t.Fatalf("Admit = %dns, %v with tokens to spare, want 0, true", ns, ok)
	}
}

// admitCase is one row of TestAdmitMatchesTriple: an engine state, an IO,
// and what the three calls Admit replaced made of them.
type admitCase struct {
	name    string
	prep    func(cfg *Config) *Engine
	isWrite bool
	size    int
	cost    float64

	wait        int64
	ok          bool
	read, write uint64 // bucket levels afterwards, as float64 bits
}

// drained empties one class's full bucket.
func drained(e *Engine, isWrite bool) *Engine {
	for i := 0; i < 2; i++ {
		e.Admit(isWrite, 128<<10, 1)
	}
	return e
}

// The expected values were printed by the parent commit's
// TryConsume(isWrite, size), then on refusal
// NanosUntil(Deficit(isWrite, size), isWrite, cost), then Tokens(), over
// these same rows.
var admitCases = []admitCase{
	{"full bucket, 4 KiB read", func(c *Config) *Engine { return New(*c, 0) }, false, 4096, 1, 0, true, 0x410f800000000000, 0x4110000000000000},
	{"full bucket, 4 KiB write", func(c *Config) *Engine { return New(*c, 0) }, true, 4096, 3, 0, true, 0x4110000000000000, 0x410f800000000000},
	{"read bucket drained, cost 1", func(c *Config) *Engine { return drained(New(*c, 0), false) }, false, 4096, 1, 20480, false, 0x0, 0x4110000000000000},
	{"read bucket drained, cost 3", func(c *Config) *Engine { return drained(New(*c, 0), false) }, false, 4096, 3, 13653, false, 0x0, 0x4110000000000000},
	{"write bucket drained, cost 3", func(c *Config) *Engine { return drained(New(*c, 0), true) }, true, 4096, 3, 40960, false, 0x4110000000000000, 0x0},
	{"write bucket drained, cost 7.3", func(c *Config) *Engine { return drained(New(*c, 0), true) }, true, 128 << 10, 7.3, 2719744, false, 0x4110000000000000, 0x0},
	{"cost below 1 counts as 1", func(c *Config) *Engine { return drained(New(*c, 0), false) }, false, 4096, 0.5, 20480, false, 0x0, 0x4110000000000000},
	{"partial refill leaves a fraction", func(c *Config) *Engine {
		e := drained(New(*c, 0), false)
		e.Refill(7_321, 3)
		return e
	}, false, 4096, 3, 3892, false, 0x40a6e0cccccccc9a, 0x4110000000000000},
	{"exactly enough", func(c *Config) *Engine {
		e := drained(drained(New(*c, 0), false), true)
		e.Refill(20_480, 1)
		return e
	}, false, 4096, 1, 0, true, 0x0, 0x40b0000000000000},
	{"after an overload: no tokens, rate snapped to the completion rate", func(c *Config) *Engine {
		e := New(*c, 0)
		e.Refill(10_000_000, 2.5)
		e.OnCompletion(10_000_000, 1<<20, latmon.Overloaded)
		e.Refill(10_003_000, 2.5)
		return e
	}, false, 4096, 2.5, 52239, false, 0x406bce55445b3c48, 0x40563eaa9d15c9d3},
	{"rate raised by underutilized completions", func(c *Config) *Engine {
		e := drained(New(*c, 0), true)
		for i := 0; i < 1000; i++ {
			e.OnCompletion(int64(i)*1000, 128<<10, latmon.Underutilized)
		}
		return e
	}, true, 4096, 4, 14138, false, 0x4110000000000000, 0x0},
	{"rate at the floor", func(c *Config) *Engine {
		e := drained(New(*c, 0), false)
		for i := 0; i < 4000; i++ {
			e.OnCompletion(int64(i)*1000, 128<<10, latmon.Congested)
		}
		return e
	}, false, 4096, 9, 568888, false, 0x0, 0x4110000000000000},
	{"zero target rate falls back to MinRate", func(c *Config) *Engine {
		c.InitialRate = 0
		return drained(New(*c, 0), false)
	}, false, 4096, 3, 512000, false, 0x0, 0x4110000000000000},
	{"oversize read from a full bucket runs a debt", func(c *Config) *Engine { return New(*c, 0) }, false, 512 << 10, 1, 0, true, 0xc110000000000000, 0x4110000000000000},
	{"oversize read from a bucket 4 KiB short of full", func(c *Config) *Engine {
		e := New(*c, 0)
		e.Admit(false, 4096, 1)
		return e
	}, false, 512 << 10, 1, 20480, false, 0x410f800000000000, 0x4110000000000000},
	{"4 KiB read behind the debt", func(c *Config) *Engine {
		e := New(*c, 0)
		e.Admit(false, 512<<10, 1)
		return e
	}, false, 4096, 2, 998400, false, 0xc110000000000000, 0x4110000000000000},
	{"single bucket: write from the shared bucket", func(c *Config) *Engine {
		c.SingleBucket = true
		return New(*c, 0)
	}, true, 4096, 3, 0, true, 0x410f800000000000, 0x4110000000000000},
	{"single bucket: stalled write waits at the write share", func(c *Config) *Engine {
		c.SingleBucket = true
		return drained(New(*c, 0), false)
	}, true, 4096, 3, 40960, false, 0x0, 0x4110000000000000},
	{"single bucket: stalled read waits at the read share", func(c *Config) *Engine {
		c.SingleBucket = true
		return drained(New(*c, 0), true)
	}, false, 4096, 3, 13653, false, 0x0, 0x4110000000000000},
	{"single bucket: oversize write from a full one", func(c *Config) *Engine {
		c.SingleBucket = true
		e := New(*c, 0)
		e.Refill(second, 1)
		return e
	}, true, 1 << 20, 3, 0, true, 0xc120000000000000, 0x4110000000000000},
	{"single bucket: oversize write from one not yet full", func(c *Config) *Engine {
		c.SingleBucket = true
		return New(*c, 0)
	}, true, 1 << 20, 3, 2621440, false, 0x4110000000000000, 0x4110000000000000},
}

// TestAdmitMatchesTriple: Admit returns, and leaves in the buckets, bit for
// bit what TryConsume → Deficit → NanosUntil did — the simulated numbers of
// every paced experiment hang on these floating-point expressions.
func TestAdmitMatchesTriple(t *testing.T) {
	for _, c := range admitCases {
		cfg := DefaultConfig()
		e := c.prep(&cfg)
		wait, ok := e.Admit(c.isWrite, c.size, c.cost)
		r, w := e.Tokens()
		if wait != c.wait || ok != c.ok || math.Float64bits(r) != c.read || math.Float64bits(w) != c.write {
			t.Errorf("%s: Admit = %d, %v leaving %v/%v (%#x/%#x), want %d, %v leaving %v/%v",
				c.name, wait, ok, r, w, math.Float64bits(r), math.Float64bits(w),
				c.wait, c.ok, math.Float64frombits(c.read), math.Float64frombits(c.write))
		}
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
// rate*dt (within float tolerance), and Admit never leaves a bucket
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
			e.Admit(false, 4096, cost)
			e.Admit(true, 4096, cost)
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
		admits := func(size int) bool {
			_, ok := e.Admit(false, size, 1)
			return ok
		}
		// wait is what Admit returns for a read d bytes short at cost 1.
		wait := func(d float64) int64 { return int64(d / (e.TargetRate() / 2) * 1e9) }
		e.Refill(second, 1) // a second at the initial rate fills every bucket
		if !admits(4096) {
			t.Fatalf("single=%v: a full bucket refused a 4 KiB read", single)
		}
		if w, ok := e.Admit(false, size, 1); ok || w != wait(4096) {
			t.Fatalf("single=%v: Admit = %d, %v for a %d-byte read from a bucket 4 KiB short of full, want %d (4096 B short), false",
				single, w, ok, size, wait(4096))
		}
		e.Refill(2*second, 1)
		if !admits(size) {
			t.Fatalf("single=%v: a full bucket refused a %d-byte read: it would wait forever", single, size)
		}
		if r, _ := e.Tokens(); r != -full {
			t.Fatalf("single=%v: bucket at %v after the oversize read, want %v in debt", single, r, -full)
		}
		e.OnCompletion(2*second, size, latmon.Overloaded)
		if r, w := e.Tokens(); r != -full || w > 0 {
			t.Fatalf("single=%v: overload left the buckets at %v/%v, want the debt %v standing and no tokens", single, r, w, -full)
		}
		d := full + 4096
		if w, ok := e.Admit(false, 4096, 1); ok || w != wait(d) {
			t.Fatalf("single=%v: Admit = %d, %v behind the oversize read, want %d (%v B short), false", single, w, ok, wait(d), d)
		}
		// Repay at a known rate, all of it to the read side (the write bucket
		// is full or shared): one byte short is refused, the rest admits.
		e.targetRate = 100e6
		e.writeTok = float64(cfg.BucketMax)
		now := 2*second + int64((d-1)/100e6*1e9)
		e.Refill(now, 1)
		if admits(4096) {
			t.Fatalf("single=%v: admitted before debt ÷ rate had passed", single)
		}
		e.Refill(now+1000, 1)
		if !admits(4096) {
			t.Fatalf("single=%v: still refused after debt ÷ rate", single)
		}
	}
}

const second = int64(1e9)
