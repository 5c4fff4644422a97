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
	// 3096 B short with the write bucket full: the write share spills over,
	// so the read bucket refills at the whole 100 MB/s → 30.96 µs.
	if ns, ok := e.Admit(false, 4096, 1); ok || ns != 30_961 {
		t.Fatalf("Admit = %dns, %v, want 30961 (30.96 µs rounded up), false", ns, ok)
	}
	// With the write bucket empty as well, the read share at cost 1 is 1/2
	// → 50 MB/s → 61.92 µs.
	e.writeTok = 0
	if ns, ok := e.Admit(false, 4096, 1); ok || ns != 61_921 {
		t.Fatalf("Admit = %dns, %v, want 61921 (61.92 µs rounded up), false", ns, ok)
	}
	if r, _ := e.Tokens(); r != 1000 {
		t.Fatalf("a refused IO took tokens: %v left of 1000", r)
	}
	if ns, ok := e.Admit(false, 500, 1); !ok || ns != 0 {
		t.Fatalf("Admit = %dns, %v with tokens to spare, want 0, true", ns, ok)
	}
}

// admitCase is one row of TestAdmitMatchesTriple: an engine state, an IO,
// and what Admit makes of them.
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

// The ok values and bucket levels were printed by TryConsume(isWrite, size)
// and Tokens(), the calls Admit replaced, over these same rows. Their wait
// was NanosUntil(Deficit(isWrite, size), isWrite, cost): the shortfall at
// the class's share of the rate, truncated, after which the pump could find
// itself a fraction of a byte short. The waits pinned here are coverWait's,
// the refill time that covers the shortfall, rounded up. Every row whose
// other bucket is full (or shared) refills at the whole rate, since Refill
// spills a full bucket's share into the other: 4096 B at the initial
// 400 MB/s is 10240 ns, 10241 rounded up. "after an overload", the one row
// with neither bucket full, differs from the old wait by the rounding alone.
var admitCases = []admitCase{
	{"full bucket, 4 KiB read", func(c *Config) *Engine { return New(*c, 0) }, false, 4096, 1, 0, true, 0x410f800000000000, 0x4110000000000000},
	{"full bucket, 4 KiB write", func(c *Config) *Engine { return New(*c, 0) }, true, 4096, 3, 0, true, 0x4110000000000000, 0x410f800000000000},
	{"read bucket drained, cost 1", func(c *Config) *Engine { return drained(New(*c, 0), false) }, false, 4096, 1, 10241, false, 0x0, 0x4110000000000000},
	{"read bucket drained, cost 3", func(c *Config) *Engine { return drained(New(*c, 0), false) }, false, 4096, 3, 10241, false, 0x0, 0x4110000000000000},
	{"write bucket drained, cost 3", func(c *Config) *Engine { return drained(New(*c, 0), true) }, true, 4096, 3, 10241, false, 0x4110000000000000, 0x0},
	{"write bucket drained, cost 7.3", func(c *Config) *Engine { return drained(New(*c, 0), true) }, true, 128 << 10, 7.3, 327681, false, 0x4110000000000000, 0x0},
	{"cost below 1 counts as 1", func(c *Config) *Engine { return drained(New(*c, 0), false) }, false, 4096, 0.5, 10241, false, 0x0, 0x4110000000000000},
	{"partial refill leaves a fraction", func(c *Config) *Engine {
		e := drained(New(*c, 0), false)
		e.Refill(7_321, 3)
		return e
	}, false, 4096, 3, 2920, false, 0x40a6e0cccccccc9a, 0x4110000000000000},
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
	}, false, 4096, 2.5, 52240, false, 0x406bce55445b3c48, 0x40563eaa9d15c9d3},
	{"rate raised by underutilized completions", func(c *Config) *Engine {
		e := drained(New(*c, 0), true)
		for i := 0; i < 1000; i++ {
			e.OnCompletion(int64(i)*1000, 128<<10, latmon.Underutilized)
		}
		return e
	}, true, 4096, 4, 2828, false, 0x4110000000000000, 0x0},
	{"rate at the floor", func(c *Config) *Engine {
		e := drained(New(*c, 0), false)
		for i := 0; i < 4000; i++ {
			e.OnCompletion(int64(i)*1000, 128<<10, latmon.Congested)
		}
		return e
	}, false, 4096, 9, 512001, false, 0x0, 0x4110000000000000},
	{"zero target rate falls back to MinRate", func(c *Config) *Engine {
		c.InitialRate = 0
		return drained(New(*c, 0), false)
	}, false, 4096, 3, 512001, false, 0x0, 0x4110000000000000},
	{"oversize read from a full bucket runs a debt", func(c *Config) *Engine { return New(*c, 0) }, false, 512 << 10, 1, 0, true, 0xc110000000000000, 0x4110000000000000},
	{"oversize read from a bucket 4 KiB short of full", func(c *Config) *Engine {
		e := New(*c, 0)
		e.Admit(false, 4096, 1)
		return e
	}, false, 512 << 10, 1, 10241, false, 0x410f800000000000, 0x4110000000000000},
	{"4 KiB read behind the debt", func(c *Config) *Engine {
		e := New(*c, 0)
		e.Admit(false, 512<<10, 1)
		return e
	}, false, 4096, 2, 665601, false, 0xc110000000000000, 0x4110000000000000},
	{"single bucket: write from the shared bucket", func(c *Config) *Engine {
		c.SingleBucket = true
		return New(*c, 0)
	}, true, 4096, 3, 0, true, 0x410f800000000000, 0x4110000000000000},
	{"single bucket: stalled write refills at the whole rate", func(c *Config) *Engine {
		c.SingleBucket = true
		return drained(New(*c, 0), false)
	}, true, 4096, 3, 10241, false, 0x0, 0x4110000000000000},
	{"single bucket: stalled read refills at the whole rate", func(c *Config) *Engine {
		c.SingleBucket = true
		return drained(New(*c, 0), true)
	}, false, 4096, 3, 10241, false, 0x0, 0x4110000000000000},
	{"single bucket: oversize write from a full one", func(c *Config) *Engine {
		c.SingleBucket = true
		e := New(*c, 0)
		e.Refill(second, 1)
		return e
	}, true, 1 << 20, 3, 0, true, 0xc120000000000000, 0x4110000000000000},
	{"single bucket: oversize write from one not yet full", func(c *Config) *Engine {
		c.SingleBucket = true
		return New(*c, 0)
	}, true, 1 << 20, 3, 655361, false, 0x4110000000000000, 0x4110000000000000},
}

// TestAdmitMatchesTriple: Admit leaves in the buckets, bit for bit, what
// TryConsume did, and returns the pinned cover time — the simulated numbers
// of every paced experiment hang on these floating-point expressions.
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

// TestAdmitWaitCovers: the wait Admit returns for a refused IO is when the
// refill covers it — Refill at lastRefill+wait, then Admit, succeeds — and
// no later than it must be: two nanoseconds earlier the IO is still
// refused. The grid crosses target rates, write costs and IO sizes with both
// buckets' levels (in debt, empty, part full, a fraction of a byte short of
// full, full), for both IO classes and both bucket layouts: 25,440 refused
// IOs. The float exceptions it found, before the wait was checked against
// the refill: the truncated quotient (the wait as it was) is short in
// 21,754 of them, math.Ceil of it in 187, and one past the truncated
// quotient in 21 — a quotient that should be a whole number of nanoseconds
// computes just under it, and the refill at that whole number lands a
// rounding error under need.
func TestAdmitWaitCovers(t *testing.T) {
	base := DefaultConfig()
	full := float64(base.BucketMax)
	levels := []float64{-full, -1000.25, 0, 1000.5, 4095.9, full / 3, full - 0.1, full}
	const t0 = 123_456_789
	cases := 0
	for _, single := range []bool{false, true} {
		cfg := base
		cfg.SingleBucket = single
		for _, isWrite := range []bool{false, true} {
			for _, rate := range []float64{base.MinRate, 99.9e6, 400e6, 1.2345e9, base.MaxRate} {
				for _, cost := range []float64{1, 1.5, 2.5, 3, 7.3, 9} {
					for _, size := range []int{512, 4096, 4097, 128 << 10, 1 << 20} {
						for _, own := range levels {
							for _, other := range levels {
								e := New(cfg, t0)
								e.targetRate = rate
								e.readTok, e.writeTok = own, other
								if isWrite {
									e.readTok, e.writeTok = other, own
								}
								probe := *e
								wait, ok := probe.Admit(isWrite, size, cost)
								if ok {
									continue
								}
								cases++
								admitsAfter := func(dt int64) bool {
									p := *e
									p.Refill(t0+dt, cost)
									_, ok := p.Admit(isWrite, size, cost)
									return ok
								}
								if !admitsAfter(wait) {
									t.Errorf("single=%v write=%v rate %v cost %v size %d, buckets %v/%v: refused %d ns after Admit said it would pass",
										single, isWrite, rate, cost, size, e.readTok, e.writeTok, wait)
								}
								if wait > 2 && admitsAfter(wait-2) {
									t.Errorf("single=%v write=%v rate %v cost %v size %d, buckets %v/%v: admitted at %d ns, Admit said %d",
										single, isWrite, rate, cost, size, e.readTok, e.writeTok, wait-2, wait)
								}
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d refused IOs, each admitted at its wait and not 2 ns before", cases)
}

func TestCompletionAdjustsRate(t *testing.T) {
	cfg := DefaultConfig()
	e := New(cfg, 0)
	base := e.TargetRate()
	if !e.OnCompletion(1000, 4096, latmon.CongestionAvoidance) {
		t.Fatal("a completion that raised the rate reported nothing moved")
	}
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
	if !e.OnCompletion(now+1000, 100_000, latmon.Overloaded) {
		t.Fatal("an overload that discarded tokens reported nothing moved")
	}
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
	if e.OnCompletion(100000, 1<<20, latmon.Underutilized) {
		t.Fatal("a completion at the ceiling moved neither rate nor bucket but reported it did")
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
		// wait is the time d bytes of refill take at the whole rate, rounded
		// up: what Admit returns for a read d bytes short at cost 1 with the
		// write bucket full (or shared).
		wait := func(d float64) int64 { return int64(d/e.TargetRate()*1e9) + 1 }
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
		// The overload emptied the write bucket too: the read side earns half
		// the rate until that is full again, so covering d takes d plus the
		// write bucket's BucketMax of refill (one bucket: d).
		cover := d
		if !single {
			cover += float64(cfg.BucketMax)
		}
		if w, ok := e.Admit(false, 4096, 1); ok || w != wait(cover) {
			t.Fatalf("single=%v: Admit = %d, %v behind the oversize read, want %d (%v B short, %v B of refill), false",
				single, w, ok, wait(cover), d, cover)
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
