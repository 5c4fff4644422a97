package ssd

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"

	"gimbal/internal/sim"
)

// ftlDigest is an FNV-64 digest of everything a pre-conditioning pass
// leaves behind: both maps, the per-block metadata, the per-die allocator
// state, the GC bucket lists and the device's flush cursor. It reads the
// dies' state in the device's block ids, die-major, and each block's
// bucket membership as the byte it once stored.
func ftlDigest(s *SSD) uint64 {
	f := s.ftl
	h := fnv.New64a()
	var buf []byte
	u32 := func(vs ...uint32) {
		for _, v := range vs {
			buf = binary.LittleEndian.AppendUint32(buf, v)
		}
	}
	u16 := func(vs []uint16) {
		for _, v := range vs {
			buf = binary.LittleEndian.AppendUint16(buf, v)
		}
	}
	// first returns the device id of the die's block 0.
	first := func(i int) uint32 { return uint32(i * f.blocksPerDie) }
	u32(f.l2p...)
	u32(f.p2l...)
	for _, d := range f.dies {
		u16(d.valid)
	}
	for _, d := range f.dies {
		u16(d.writePtr)
	}
	for _, d := range f.dies {
		u32(d.erases...)
	}
	for i, d := range f.dies {
		u32(uint32(len(d.free)))
		for _, b := range d.free {
			u32(first(i) + b)
		}
		u32(first(i)+d.open, first(i)+d.gcOpen, uint32(d.minValid))
	}
	links := func(i int, bs []int32) {
		for _, b := range bs {
			if b != noBlock {
				b += int32(first(i))
			}
			u32(uint32(b))
		}
	}
	for i, d := range f.dies {
		links(i, d.bucketHead)
	}
	for i, d := range f.dies {
		links(i, d.bNext)
	}
	for i, d := range f.dies {
		links(i, d.bPrev)
	}
	for _, d := range f.dies {
		for b, wp := range d.writePtr {
			if wp == uint16(d.ppb) && uint32(b) != d.open && uint32(b) != d.gcOpen {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		}
	}
	u32(uint32(f.mappedPages), uint32(s.flushDie))
	h.Write(buf)
	return h.Sum64()
}

// TestFTLCheckChangesNothing audits a fragmented 1 GiB device after each of
// a few more host writes and checks that the audit left every word
// ftlDigest reads as it was. The writes' GC can leave a die's lazy
// minimum-bucket hint below its lowest non-empty bucket, which picking a
// victim advances.
func TestFTLCheckChangesNothing(t *testing.T) {
	p := DCT983()
	p.UsableBytes = 1 << 30
	dev := New(sim.NewLoop(), p)
	dev.preconditionUncached(Fragmented, sim.NewRNG(1))
	rng := sim.NewRNG(2)
	for i := range 8 {
		dev.ftl.writePage(uint32(rng.Intn(p.LogicalPages())), dev.preconditionDie(1))
		before := ftlDigest(dev)
		if err := dev.FTLCheck(); err != nil {
			t.Fatal(err)
		}
		if after := ftlDigest(dev); after != before {
			t.Fatalf("after write %d: digest %#016x after FTLCheck, %#016x before", i, after, before)
		}
	}
}

// TestPreconditionDigest pins the exact FTL state each pre-conditioning
// pass produces. The differential tests drive both twins through the same
// reclaim, so they cannot see a change in relocation order; these literals
// can. A change to the FTL's write or GC path that is meant to be a pure
// speedup must leave every digest as it is. At 256 MiB and at 1 GiB the
// DCT983 and P3600 sets round to the same block count per die, so their
// digests agree; the 32-page diffParams geometry is the one that differs.
// At 256 MiB (11 blocks a die) some die misses a round-robin turn during
// the overwrite pass, and the pass takes its per-page fallback; at 1 GiB
// and 4 GiB, on the 18-die geometry (33 blocks a die) and on diffParams,
// every die takes every turn and the pass goes die by die.
func TestPreconditionDigest(t *testing.T) {
	at := func(p Params, bytes int64) Params {
		p.UsableBytes = bytes
		return p
	}
	cases := []struct {
		name string
		p    Params
		cond Condition
		seed uint64
		want uint64
	}{
		{"dct983/clean", at(DCT983(), 256<<20), Clean, 1, 0x4e8bc55f81146ead},
		{"dct983/frag/1", at(DCT983(), 256<<20), Fragmented, 1, 0x653f56e882d9c337},
		{"dct983/frag/2", at(DCT983(), 256<<20), Fragmented, 2, 0x8501b73dc6b828d5},
		{"p3600/clean", at(P3600(), 256<<20), Clean, 1, 0x4e8bc55f81146ead},
		{"p3600/frag/1", at(P3600(), 256<<20), Fragmented, 1, 0x653f56e882d9c337},
		{"p3600/frag/2", at(P3600(), 256<<20), Fragmented, 2, 0x8501b73dc6b828d5},
		{"diff/clean", diffParams(), Clean, 1, 0x0f33256e30861985},
		{"diff/frag/1", diffParams(), Fragmented, 1, 0x890e3d14a921a355},
		{"diff/frag/2", diffParams(), Fragmented, 2, 0x362a2edb02c2077d},
		{"dct983-1g/frag/1", at(DCT983(), 1<<30), Fragmented, 1, 0x8ae620f8a9a33c35},
		{"dct983-1g/frag/2", at(DCT983(), 1<<30), Fragmented, 2, 0x98aa9322f7c40bfe},
		{"p3600-1g/frag/1", at(P3600(), 1<<30), Fragmented, 1, 0x8ae620f8a9a33c35},
		{"p3600-1g/frag/2", at(P3600(), 1<<30), Fragmented, 2, 0x98aa9322f7c40bfe},
		{"6x3/frag/1", sixByThree(), Fragmented, 1, 0x089fa36274dd3f8d},
		{"dct983-4g/frag/1", at(DCT983(), 4<<30), Fragmented, 1, 0x0e10d12c63797ba2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dev := New(sim.NewLoop(), tc.p)
			dev.preconditionUncached(tc.cond, sim.NewRNG(tc.seed))
			if err := dev.FTLCheck(); err != nil {
				t.Fatal(err)
			}
			if got := ftlDigest(dev); got != tc.want {
				t.Errorf("digest %#016x, want %#016x", got, tc.want)
			}
		})
	}
}

// sixByThree is a 512 MiB geometry of 18 dies, a count that is not a power
// of two, with 33 blocks a die.
func sixByThree() Params {
	p := DCT983()
	p.Name = "6x3"
	p.Channels = 6
	p.DiesPerChannel = 3
	p.UsableBytes = 512 << 20
	return p
}

// overwriteOracle is the Fragmented pass as the device's own flush path
// would run it: the fill, then one page at a time to the die pickFlushDie
// chooses. The die pass must leave the state it leaves. It reports how many
// of the overwrites went to a die other than the one whose turn it was.
func overwriteOracle(s *SSD, rng *sim.RNG) (skipped int) {
	n := s.p.LogicalPages()
	s.fillSequential(0, n, s.p.ProgramPages)
	for left := n + n/2; left > 0; left-- {
		l := uint32(rng.Intn(n))
		turn := s.flushDie
		die, ok := s.pickFlushDie(1)
		if !ok {
			panic("oracle: no die can take a page")
		}
		if die != turn {
			skipped++
		}
		s.ftl.writePage(l, die)
	}
	s.resetAfterPrecondition()
	return skipped
}

// randomGeometry draws a Validate-passing device of 1-12 dies whose blocks
// per die fall on both sides of the line below which a die can miss its
// round-robin turn. It redraws a device whose dies keep fewer than three
// blocks beyond the logical pages: the fill could not finish there.
func randomGeometry(rng *sim.RNG) Params {
	for {
		p := DCT983()
		p.Name = "random"
		p.Channels = 1 + rng.Intn(4)
		p.DiesPerChannel = 1 + rng.Intn(3)
		p.PagesPerBlock = 16 << rng.Intn(5)
		p.ProgramPages = 1 << rng.Intn(4)
		p.OverProvision = 0.07 + 0.23*rng.Float64()
		blocks := 11 + rng.Intn(50)
		if most := 1 << 17; blocks*p.Dies()*p.PagesPerBlock > most {
			blocks = max(11, most/(p.Dies()*p.PagesPerBlock))
		}
		pages := float64(blocks*p.Dies()*p.PagesPerBlock) / (1 + p.OverProvision)
		p.UsableBytes = int64(pages) * int64(p.PageSize)
		perDie := p.Dies() * p.PagesPerBlock
		if p.BlocksPerDie()-(p.LogicalPages()+perDie-1)/perDie >= 3 {
			return p
		}
	}
}

// TestOverwriteByDieMatchesOracle compares the production pass, die pass or
// per-page fallback, with overwriteOracle on random geometries and seeds,
// at GOMAXPROCS 1, 2 and 4: the same FTL state, digest and RNG end state, and
// the die pass taken exactly where no die skipped a turn.
func TestOverwriteByDieMatchesOracle(t *testing.T) {
	gen := sim.NewRNG(36)
	paths := map[bool]int{}
	for i := 0; i < 24; i++ {
		p := randomGeometry(gen)
		if err := p.Validate(); err != nil {
			t.Fatalf("geometry %d: %v", i, err)
		}
		seed := gen.Uint64()
		name := fmt.Sprintf("%dx%d/ppb%d/prog%d/op%.2f/%dblk/seed%d", p.Channels, p.DiesPerChannel,
			p.PagesPerBlock, p.ProgramPages, p.OverProvision, p.BlocksPerDie(), seed)
		oracle := New(sim.NewLoop(), p)
		oracleRNG := sim.NewRNG(seed)
		skipped := overwriteOracle(oracle, oracleRNG)
		want := ftlDigest(oracle)
		if err := oracle.FTLCheck(); err != nil {
			t.Fatalf("%s oracle: %v", name, err)
		}
		for _, procs := range []int{1, 2, 4} {
			prev := runtime.GOMAXPROCS(procs)
			dev := New(sim.NewLoop(), p)
			rng := sim.NewRNG(seed)
			byDie := dev.preconditionUncached(Fragmented, rng)
			runtime.GOMAXPROCS(prev)
			paths[byDie]++
			if byDie != (skipped == 0) {
				t.Fatalf("%s procs %d: die pass %v with %d skipped turns", name, procs, byDie, skipped)
			}
			if got := ftlDigest(dev); got != want {
				t.Fatalf("%s procs %d (by die %v): digest %#016x, oracle %#016x", name, procs, byDie, got, want)
			}
			if err := compareFTL(dev.ftl, oracle.ftl); err != nil {
				t.Fatalf("%s procs %d (by die %v): %v", name, procs, byDie, err)
			}
			if err := dev.FTLCheck(); err != nil {
				t.Fatalf("%s procs %d (by die %v): %v", name, procs, byDie, err)
			}
			if rng.State() != oracleRNG.State() {
				t.Fatalf("%s procs %d (by die %v): rng ends at %#x, oracle %#x", name, procs, byDie, rng.State(), oracleRNG.State())
			}
		}
	}
	t.Logf("die pass %d runs, per-page fallback %d runs", paths[true], paths[false])
	if paths[true] == 0 || paths[false] == 0 {
		t.Fatalf("die pass ran %d times and the fallback %d times, want both", paths[true], paths[false])
	}
}

// TestParseCondition: each condition parses from the name String gives it,
// and nothing else parses (not another case, not String's fallback).
func TestParseCondition(t *testing.T) {
	for _, c := range []struct {
		name string
		want Condition
		ok   bool
	}{
		{"fresh", Fresh, true},
		{"clean", Clean, true},
		{"fragmented", Fragmented, true},
		{"", 0, false},
		{"fragmentd", 0, false},
		{"Clean", 0, false},
		{"condition(?)", 0, false},
	} {
		got, err := ParseCondition(c.name)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("ParseCondition(%q) = %v, %v; want %v, ok=%v", c.name, got, err, c.want, c.ok)
		}
		if c.ok && got.String() != c.name {
			t.Errorf("ParseCondition(%q).String() = %q", c.name, got.String())
		}
	}
}
