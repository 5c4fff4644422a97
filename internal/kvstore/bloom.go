// Package kvstore is the log-structured merge-tree key-value store of the
// §4.3 case study (the RocksDB stand-in): an arena skiplist memtable, a
// group-committed write-ahead log, SSTables with 4KB data blocks, block
// index and bloom filters, leveled compaction with write stalls, and an
// LRU block cache — all running over the replicated blobstore file system,
// so every flush, compaction and point read turns into the exact IO shapes
// the paper's workload generates.
//
// Values can be retained (faithful mode, used by the unit tests) or
// synthesized on read (scale mode, used by the YCSB benchmarks); the IO
// pattern — what the experiments measure — is identical in both modes.
package kvstore

import "math"

// Key is a numeric user key (YCSB keys are integers; RocksDB's byte-string
// generality is not needed by any experiment).
type Key uint64

// Bloom is a split block bloom filter over keys.
type Bloom struct {
	bits []uint64
	k    int
}

// NewBloom builds a filter for n keys at bitsPerKey (RocksDB default 10).
func NewBloom(n int, bitsPerKey int) *Bloom {
	if n < 1 {
		n = 1
	}
	nbits := n * bitsPerKey
	if nbits < 64 {
		nbits = 64
	}
	k := int(float64(bitsPerKey) * math.Ln2)
	if k < 1 {
		k = 1
	}
	if k > 12 {
		k = 12
	}
	return &Bloom{bits: make([]uint64, (nbits+63)/64), k: k}
}

func bloomHash(key Key, i int) uint64 {
	h := uint64(key) + uint64(i)*0x9e3779b97f4a7c15
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Add inserts a key.
func (b *Bloom) Add(key Key) {
	n := uint64(len(b.bits) * 64)
	for i := 0; i < b.k; i++ {
		bit := bloomHash(key, i) % n
		b.bits[bit/64] |= 1 << (bit % 64)
	}
}

// MayContain reports whether the key could be present.
func (b *Bloom) MayContain(key Key) bool {
	n := uint64(len(b.bits) * 64)
	for i := 0; i < b.k; i++ {
		bit := bloomHash(key, i) % n
		if b.bits[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}
