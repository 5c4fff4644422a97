package ssd

// Device-model microbenchmarks (first medians: EXPERIMENTS.md "History
// (pre-ledger)", PR 4): the GC-bound FTL write path, the steady-state read
// path, bulk trim, and a full pre-conditioning pass. Run:
//
//	go test ./internal/ssd -bench 'FTLWriteGC|DeviceRead|DevicePrecondition|FTLTrim' -benchmem
//
// BenchmarkFTLWriteGC is deliberately victim-selection-bound: one die with a
// large block population and 100% over-provisioning keeps the mapping tables
// cache-resident and the per-reclaim relocation cheap, so the victim scan
// (naive: O(blocksPerDie) per reclaim) dominates — the workload shape where
// the valid-count bucket lists pay off.

import (
	"testing"

	"gimbal/internal/sim"
)

// benchPrecondition bypasses the pre-conditioning snapshot cache so the
// benchmark measures the fill path itself, not a state restore.
func benchPrecondition(s *SSD, c Condition, rng *sim.RNG) { s.preconditionUncached(c, rng) }

// gcBoundParams returns a single-die geometry where GC victim selection,
// not page relocation, is the dominant cost of a random overwrite.
func gcBoundParams() Params {
	p := DCT983()
	p.Name = "gc-bound"
	p.Channels = 1
	p.DiesPerChannel = 1
	p.PagesPerBlock = 64
	p.ProgramPages = 4
	p.UsableBytes = 2 << 30
	p.OverProvision = 1.0
	return p
}

// BenchmarkFTLWriteGC measures one random single-page host write through the
// FTL, with garbage collection amortized in: the drive is filled, then
// overwritten until steady state before the timer starts.
func BenchmarkFTLWriteGC(b *testing.B) {
	p := gcBoundParams()
	f := newFTL(p)
	n := p.LogicalPages()
	for l := 0; l < n; l++ {
		f.writePage(uint32(l), 0)
	}
	rng := sim.NewRNG(11)
	// Reach GC steady state (free pool down at the trigger) before timing.
	for i := 0; i < n; i++ {
		f.writePage(uint32(rng.Intn(n)), 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.writePage(uint32(rng.Intn(n)), 0)
	}
	b.StopTimer()
	if err := f.checkInvariants(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFTLTrimSpan measures bulk invalidation of large sequentially
// written spans — the blobstore's free path.
func BenchmarkFTLTrimSpan(b *testing.B) {
	p := gcBoundParams()
	f := newFTL(p)
	n := p.LogicalPages()
	for l := 0; l < n; l++ {
		f.writePage(uint32(l), 0)
	}
	const span = 4096 // pages per trim (16MB)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		first := uint32((i * span) % (n - span))
		f.trim(first, span)
		b.StopTimer()
		// Remap the span so every timed trim invalidates live pages.
		for l := first; l < first+span; l++ {
			f.writePage(l, 0)
		}
		b.StartTimer()
	}
}

// BenchmarkDeviceRead measures the steady-state 4KB random read path on a
// clean device at QD1, reusing one request so the measured allocations are
// the device's own.
func BenchmarkDeviceRead(b *testing.B) {
	loop := sim.NewLoop()
	p := DCT983()
	p.UsableBytes = 1 << 30
	dev := New(loop, p)
	dev.Precondition(Clean, sim.NewRNG(1))
	rng := sim.NewRNG(2)
	pages := int64(p.LogicalPages())
	req := &Request{Kind: OpRead, Size: 4096}
	remaining := b.N
	req.Done = func(r *Request) {
		if remaining <= 0 {
			return
		}
		remaining--
		r.Offset = rng.Int63n(pages) * 4096
		dev.Submit(r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	req.Offset = 0
	remaining--
	dev.Submit(req)
	loop.Run()
}

// BenchmarkDeviceWriteFlush measures the buffered write + flush pipeline at
// QD1 on a fragmented device: admission, batch coalescing, NAND programming
// with GC backpressure, and buffer release.
func BenchmarkDeviceWriteFlush(b *testing.B) {
	loop := sim.NewLoop()
	p := DCT983()
	p.UsableBytes = 512 << 20
	dev := New(loop, p)
	dev.Precondition(Fragmented, sim.NewRNG(1))
	rng := sim.NewRNG(2)
	pages := int64(p.LogicalPages())
	req := &Request{Kind: OpWrite, Size: 4096}
	remaining := b.N
	req.Done = func(r *Request) {
		if remaining <= 0 {
			return
		}
		remaining--
		r.Offset = rng.Int63n(pages) * 4096
		dev.Submit(r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	req.Offset = 0
	remaining--
	dev.Submit(req)
	loop.Run()
}

// BenchmarkDevicePrecondition measures a full Fragmented pre-conditioning
// pass — the sequential fill plus 1.5x-capacity random overwrite that
// dominates experiment setup — on a 256MB drive. One iteration is one
// complete pass.
func BenchmarkDevicePrecondition(b *testing.B) {
	p := DCT983()
	p.UsableBytes = 256 << 20
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		loop := sim.NewLoop()
		dev := New(loop, p)
		benchPrecondition(dev, Fragmented, sim.NewRNG(1))
	}
}

// BenchmarkDevicePreconditionCached measures the public Precondition path,
// which restores an FTL snapshot after the first pass for a given
// (params, condition, seed) key instead of replaying the fill. This is
// what every experiment beyond the first pays per device.
func BenchmarkDevicePreconditionCached(b *testing.B) {
	p := DCT983()
	p.Name = "bench-precond-cached"
	p.UsableBytes = 256 << 20
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		loop := sim.NewLoop()
		dev := New(loop, p)
		dev.Precondition(Fragmented, sim.NewRNG(1))
	}
}
