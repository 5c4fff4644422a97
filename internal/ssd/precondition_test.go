package ssd

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"gimbal/internal/sim"
)

// ftlDigest is an FNV-64 digest of everything a pre-conditioning pass
// leaves behind: both maps, the per-block metadata, the per-die allocator
// state, the GC bucket lists and the device's flush cursor.
func ftlDigest(s *SSD) uint64 {
	f := s.ftl
	h := fnv.New64a()
	var buf []byte
	u32 := func(vs ...uint32) {
		for _, v := range vs {
			buf = binary.LittleEndian.AppendUint32(buf, v)
		}
	}
	u32(f.l2p...)
	u32(f.p2l...)
	for _, v := range f.valid {
		buf = binary.LittleEndian.AppendUint16(buf, v)
	}
	for _, v := range f.writePtr {
		buf = binary.LittleEndian.AppendUint16(buf, v)
	}
	u32(f.erases...)
	for d := range f.dies {
		ds := &f.dies[d]
		u32(uint32(len(ds.free)))
		u32(ds.free...)
		u32(ds.open, ds.gcOpen, uint32(f.minValid[d]))
	}
	for _, ls := range [][]int32{f.bucketHead, f.bNext, f.bPrev} {
		for _, v := range ls {
			u32(uint32(v))
		}
	}
	for _, in := range f.inBucket {
		if in {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	u32(uint32(f.mappedPages), uint32(s.flushDie))
	h.Write(buf)
	return h.Sum64()
}

// TestPreconditionDigest pins the exact FTL state each pre-conditioning
// pass produces. The differential tests drive both twins through the same
// reclaim, so they cannot see a change in relocation order; these literals
// can. A change to the FTL's write or GC path that is meant to be a pure
// speedup must leave every digest as it is. At 256 MiB the DCT983 and P3600
// sets round to the same block count per die, so their digests agree; the
// 32-page diffParams geometry is the one that differs.
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
