package workload

import (
	"math"
	"testing"

	"gimbal/internal/nvme"
	"gimbal/internal/sim"
)

// echoTarget completes IOs after a fixed delay. It records submissions by
// value: the worker recycles IO structs after completion, so retained
// pointers would all alias the most recent submission.
type echoTarget struct {
	loop  *sim.Loop
	delay int64
	seen  []nvme.IO
}

func (e *echoTarget) Submit(io *nvme.IO) {
	e.seen = append(e.seen, *io)
	e.loop.After(e.delay, func() {
		io.Done(io, nvme.Completion{Status: nvme.StatusOK})
	})
}

func TestWorkerClosedLoopMaintainsQD(t *testing.T) {
	loop := sim.NewLoop()
	tgt := &echoTarget{loop: loop, delay: 100_000}
	w := NewWorker(loop, sim.NewRNG(1),
		Profile{Name: "t", ReadRatio: 1, IOSize: 4096, QD: 8, Span: 1 << 30},
		nvme.NewTenant(0, "t"), tgt)
	w.Start(10_000_000) // 10ms
	loop.RunUntil(5_000_000)
	if w.Inflight() != 8 {
		t.Fatalf("inflight = %d, want QD 8", w.Inflight())
	}
	loop.Run()
	// 10ms / 100us per IO * 8 deep = ~800 IOs.
	n := w.ReadLat.Count()
	if n < 700 || n > 900 {
		t.Fatalf("completed %d IOs, want ~800", n)
	}
	if w.Inflight() != 0 {
		t.Fatalf("inflight = %d after drain", w.Inflight())
	}
}

func TestWorkerReadWriteMix(t *testing.T) {
	loop := sim.NewLoop()
	tgt := &echoTarget{loop: loop, delay: 10_000}
	w := NewWorker(loop, sim.NewRNG(1),
		Profile{Name: "t", ReadRatio: 0.7, IOSize: 4096, QD: 4, Span: 1 << 30},
		nvme.NewTenant(0, "t"), tgt)
	w.Start(50_000_000)
	loop.Run()
	reads, writes := float64(w.ReadLat.Count()), float64(w.WriteLat.Count())
	ratio := reads / (reads + writes)
	if math.Abs(ratio-0.7) > 0.05 {
		t.Fatalf("read fraction = %.3f, want ~0.7", ratio)
	}
}

func TestWorkerSequentialOffsets(t *testing.T) {
	loop := sim.NewLoop()
	tgt := &echoTarget{loop: loop, delay: 1000}
	w := NewWorker(loop, sim.NewRNG(1),
		Profile{Name: "t", ReadRatio: 1, IOSize: 4096, QD: 1, Seq: true, Span: 16384},
		nvme.NewTenant(0, "t"), tgt)
	w.Start(20_000)
	loop.Run()
	// Offsets must cycle 0,4096,8192,12288,0,...
	for i, io := range tgt.seen {
		want := int64((i % 4) * 4096)
		if io.Offset != want {
			t.Fatalf("io %d offset = %d, want %d", i, io.Offset, want)
		}
	}
}

func TestWorkerOffsetsWithinSpan(t *testing.T) {
	loop := sim.NewLoop()
	tgt := &echoTarget{loop: loop, delay: 1000}
	span := int64(1 << 20)
	w := NewWorker(loop, sim.NewRNG(1),
		Profile{Name: "t", ReadRatio: 1, IOSize: 4096, QD: 4, Span: span},
		nvme.NewTenant(0, "t"), tgt)
	w.Start(1_000_000)
	loop.Run()
	for _, io := range tgt.seen {
		if io.Offset < 0 || io.Offset+int64(io.Size) > span {
			t.Fatalf("offset %d outside [0, %d)", io.Offset, span)
		}
	}
}

func TestWorkerRateLimit(t *testing.T) {
	loop := sim.NewLoop()
	tgt := &echoTarget{loop: loop, delay: 10_000}
	// 100 MB/s cap, 4KB IOs → 25600 IOPS → ~2560 IOs in 100ms.
	w := NewWorker(loop, sim.NewRNG(1),
		Profile{Name: "t", ReadRatio: 1, IOSize: 4096, QD: 8, RateLimitBps: 100e6, Span: 1 << 30},
		nvme.NewTenant(0, "t"), tgt)
	w.Start(100_000_000)
	loop.Run()
	bw := float64(w.Meter.Bytes()) / 1e6 / 0.1
	if bw > 110 || bw < 80 {
		t.Fatalf("rate-limited bandwidth = %.1f MB/s, want ~100", bw)
	}
}

func TestWorkerStopCeasesSubmission(t *testing.T) {
	loop := sim.NewLoop()
	tgt := &echoTarget{loop: loop, delay: 10_000}
	w := NewWorker(loop, sim.NewRNG(1),
		Profile{Name: "t", ReadRatio: 1, IOSize: 4096, QD: 4, Span: 1 << 30},
		nvme.NewTenant(0, "t"), tgt)
	w.Start(1_000_000_000)
	loop.RunUntil(1_000_000)
	w.Stop()
	seen := len(tgt.seen)
	loop.RunUntil(10_000_000)
	if len(tgt.seen) != seen {
		t.Fatalf("submissions continued after Stop: %d -> %d", seen, len(tgt.seen))
	}
}

func TestZipfSkew(t *testing.T) {
	rng := sim.NewRNG(42)
	z := NewZipf(rng, 10000, 0.99)
	counts := map[uint64]int{}
	const n = 200000
	for i := 0; i < n; i++ {
		k := z.Next()
		if k >= 10000 {
			t.Fatalf("key %d out of range", k)
		}
		counts[k]++
	}
	// Rank 0 should dominate: YCSB zipf 0.99 gives the top key ~10% mass
	// over 10k keys.
	if frac := float64(counts[0]) / n; frac < 0.05 || frac > 0.2 {
		t.Fatalf("hottest key fraction = %.3f, want ~0.1", frac)
	}
	// Top 100 ranks should hold the majority of accesses.
	top := 0
	for k := uint64(0); k < 100; k++ {
		top += counts[k]
	}
	if frac := float64(top) / n; frac < 0.5 {
		t.Fatalf("top-100 mass = %.3f, want > 0.5", frac)
	}
}

// TestZipfNextMatchesPerSampleFormula: hoisting the rank-1 threshold out of
// Next moved no sample. The reference is Gray et al.'s formula with every
// term evaluated per draw, as Next evaluated it before.
func TestZipfNextMatchesPerSampleFormula(t *testing.T) {
	for _, tc := range []struct {
		n     uint64
		theta float64
	}{{1 << 20, 0.99}, {10000, 0.5}, {3, 0.9}} {
		z := NewZipf(sim.NewRNG(7), tc.n, tc.theta)
		ref := sim.NewRNG(7)
		for i := 0; i < 1_000_000; i++ {
			u := ref.Float64()
			want := uint64(float64(tc.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
			if uz := u * z.zetan; uz < 1 {
				want = 0
			} else if uz < 1+math.Pow(0.5, tc.theta) {
				want = 1
			}
			if got := z.Next(); got != want {
				t.Fatalf("n=%d theta=%v sample %d: Next = %d, the formula gives %d", tc.n, tc.theta, i, got, want)
			}
		}
	}
}

func TestZipfScatteredCoversSpace(t *testing.T) {
	rng := sim.NewRNG(42)
	z := NewZipf(rng, 1000, 0.99)
	seenHigh := false
	for i := 0; i < 10000; i++ {
		k := z.ScatteredNext()
		if k >= 1000 {
			t.Fatalf("scattered key %d out of range", k)
		}
		if k > 500 {
			seenHigh = true
		}
	}
	if !seenHigh {
		t.Fatal("scattering failed: no keys in upper half")
	}
}

func TestLatestDistributionFavorsRecent(t *testing.T) {
	rng := sim.NewRNG(42)
	l := NewLatest(rng, 1000, 0.99)
	recent := 0
	const n = 50000
	for i := 0; i < n; i++ {
		k := l.Next()
		if k >= l.Frontier() {
			t.Fatalf("key %d beyond frontier %d", k, l.Frontier())
		}
		if k >= l.Frontier()-100 {
			recent++
		}
	}
	if frac := float64(recent) / n; frac < 0.5 {
		t.Fatalf("recent-100 mass = %.3f, want > 0.5", frac)
	}
	// Frontier advances with inserts.
	before := l.Frontier()
	l.Insert()
	if l.Frontier() != before+1 {
		t.Fatal("Insert did not advance frontier")
	}
}

func TestZetaApproximationContinuity(t *testing.T) {
	// The integral approximation must join smoothly at the cutoff.
	exact := zeta(1<<20, 0.99)
	approxPlus := zeta(1<<20+1000, 0.99)
	if approxPlus <= exact {
		t.Fatal("zeta not increasing past cutoff")
	}
	if approxPlus-exact > 1 {
		t.Fatalf("zeta jump at cutoff: %v", approxPlus-exact)
	}
}
