package kvstore

import (
	"fmt"
	"sort"

	"gimbal/internal/blobstore"
	"gimbal/internal/sim"
)

// Options configures a DB instance. Sizes are scaled-down RocksDB defaults
// matching the scaled SSD capacity (DESIGN.md documents the scaling).
type Options struct {
	MemtableBytes    int64 // write buffer size (4MB)
	BlockBytes       int   // data block size (4KB)
	L0Trigger        int   // L0 file count that triggers compaction (4)
	L0Stall          int   // L0 file count that stalls writers (12)
	LevelBaseBytes   int64 // max total bytes of L1 (16MB)
	LevelMult        int   // per-level size multiplier (10)
	MaxLevels        int   // number of levels including L0 (6)
	TableTargetBytes int64 // max output table size in compaction (8MB)
	BlockCacheBlocks int   // LRU capacity in blocks (2048 = 8MB)
	WALStallBytes    int64 // pending WAL bytes that stall writers (8MB)
	RetainValues     bool  // faithful mode: keep value bytes in tables
}

// DefaultOptions returns the scaled configuration.
func DefaultOptions() Options {
	return Options{
		MemtableBytes:    4 << 20,
		BlockBytes:       4096,
		L0Trigger:        4,
		L0Stall:          12,
		LevelBaseBytes:   16 << 20,
		LevelMult:        10,
		MaxLevels:        6,
		TableTargetBytes: 8 << 20,
		BlockCacheBlocks: 2048,
		WALStallBytes:    8 << 20,
	}
}

// Stats counts DB activity.
type Stats struct {
	Gets, Puts           int64
	Flushes, Compactions int64
	BytesFlushed         int64
	BytesCompactedIn     int64
	BytesCompactedOut    int64
	StallNs              int64
	BlockReads           int64
	CacheHitRate         float64
	WALBytes             int64
}

// DB is one LSM key-value store instance over a blobstore file system.
// All public IO methods must be called from cooperative simulation
// processes.
type DB struct {
	name string
	loop *sim.Loop
	fs   *blobstore.FS
	opt  Options
	rng  *sim.RNG

	mem    *Memtable
	imm    *Memtable
	immWal *blobstore.File
	levels [][]*Table
	nextID uint64
	cache  *blockCache

	wal        *blobstore.File
	walPending int64
	walSeq     int

	bg      *sim.Proc
	bgIdle  bool
	pickCur []int // round-robin compaction cursor per level
	walProc *sim.Proc
	walIdle bool
	stalled []*sim.Proc
	closed  bool
	dropped map[uint64]bool

	stats Stats
}

// Open creates a DB named name over fs.
func Open(loop *sim.Loop, fs *blobstore.FS, name string, opt Options, rng *sim.RNG) *DB {
	db := &DB{
		name:    name,
		loop:    loop,
		fs:      fs,
		opt:     opt,
		rng:     rng,
		mem:     NewMemtable(rng.Fork()),
		levels:  make([][]*Table, opt.MaxLevels),
		cache:   newBlockCache(opt.BlockCacheBlocks),
		dropped: map[uint64]bool{},
		pickCur: make([]int, opt.MaxLevels),
	}
	db.wal = fs.Create(fmt.Sprintf("%s/wal-%06d", name, db.walSeq))
	db.bg = loop.Spawn(name+"/bg", db.background)
	db.walProc = loop.Spawn(name+"/wal", db.walLoop)
	return db
}

// Close stops the background processes after in-progress work finishes.
func (db *DB) Close() {
	db.closed = true
	db.wakeBG()
	db.wakeWAL()
}

// Stats returns a snapshot of the counters.
func (db *DB) Stats() Stats {
	s := db.stats
	s.CacheHitRate = db.cache.HitRate()
	return s
}

// LevelTableCounts reports the table count per level (diagnostics).
func (db *DB) LevelTableCounts() []int {
	out := make([]int, len(db.levels))
	for i, lv := range db.levels {
		out[i] = len(lv)
	}
	return out
}

// ---- Write path ----

// PutLen inserts key with a synthesized value of n bytes (scale mode).
func (db *DB) PutLen(p *sim.Proc, key Key, n int) error {
	return db.write(p, Entry{K: key, VLen: n})
}

func (db *DB) write(p *sim.Proc, e Entry) error {
	if db.closed {
		return fmt.Errorf("kvstore: %s is closed", db.name)
	}
	db.maybeStall(p)
	db.walPending += int64(e.EncodedLen())
	db.stats.WALBytes += int64(e.EncodedLen())
	db.wakeWAL()
	if !e.Tomb {
		db.stats.Puts++
	}
	db.mem.Put(e)
	if db.mem.Bytes() >= db.opt.MemtableBytes && db.imm == nil {
		db.rotate(p)
	}
	return nil
}

// rotate seals the memtable for flushing and starts a fresh WAL segment,
// synchronously draining the old segment's buffered tail (RocksDB syncs
// the WAL at rotation).
func (db *DB) rotate(p *sim.Proc) {
	if db.walPending > 0 {
		n := ceil4k(db.walPending)
		db.walPending = 0
		// Allocation failure leaves the store running degraded; the tail
		// bytes are simply not persisted (the simulation carries no data).
		_ = db.wal.Append(p, int(n))
	}
	db.imm = db.mem
	db.immWal = db.wal
	db.mem = NewMemtable(db.rng.Fork())
	db.walSeq++
	db.wal = db.fs.Create(fmt.Sprintf("%s/wal-%06d", db.name, db.walSeq))
	db.wakeBG()
}

// maybeStall parks the writer while the LSM is over its ingest limits
// (memtable full with a flush behind it, too many L0 files, or WAL
// backlog) — the RocksDB write-stall behavior that turns device slowness
// into client backpressure.
func (db *DB) maybeStall(p *sim.Proc) {
	for {
		overMem := db.mem.Bytes() >= db.opt.MemtableBytes && db.imm != nil
		overL0 := len(db.levels[0]) >= db.opt.L0Stall
		overWAL := db.walPending >= db.opt.WALStallBytes
		if !overMem && !overL0 && !overWAL {
			return
		}
		start := p.Now()
		db.stalled = append(db.stalled, p)
		p.Park()
		db.stats.StallNs += p.Now() - start
	}
}

func (db *DB) releaseStalls() {
	ws := db.stalled
	db.stalled = nil
	for _, w := range ws {
		w.Wake(nil)
	}
}

// ---- WAL writer ----

// walLoop persists buffered WAL bytes in grouped 4KB-aligned appends.
func (db *DB) walLoop(p *sim.Proc) {
	for {
		for db.walPending >= 4096 {
			n := db.walPending &^ 4095
			db.walPending -= n
			wal := db.wal
			if err := wal.Append(p, int(n)); err != nil {
				// Allocation exhausted: drop the segment bytes; the store
				// keeps running degraded (counted, not fatal).
				break
			}
			db.releaseStalls()
		}
		if db.closed {
			return
		}
		db.walIdle = true
		p.Park()
	}
}

func (db *DB) wakeWAL() {
	if db.walIdle && (db.walPending >= 4096 || db.closed) {
		db.walIdle = false
		db.walProc.Wake(nil)
	}
}

// ---- Background flush and compaction ----

func (db *DB) background(p *sim.Proc) {
	for {
		switch {
		case db.imm != nil:
			db.flush(p)
		case db.pickCompaction() != nil:
			db.compact(p, db.pickCompaction())
		case db.closed:
			return
		default:
			db.bgIdle = true
			p.Park()
		}
	}
}

func (db *DB) wakeBG() {
	if db.bgIdle {
		db.bgIdle = false
		db.bg.Wake(nil)
	}
}

func (db *DB) flush(p *sim.Proc) {
	entries := db.imm.All()
	if len(entries) > 0 {
		db.nextID++
		t, err := buildTable(p, db.fs, db.nextID,
			fmt.Sprintf("%s/sst-%06d", db.name, db.nextID),
			entries, db.opt.BlockBytes, db.opt.RetainValues)
		if err == nil {
			db.levels[0] = append([]*Table{t}, db.levels[0]...)
			db.stats.Flushes++
			db.stats.BytesFlushed += t.Bytes()
		}
	}
	db.imm = nil
	if db.immWal != nil {
		db.immWal.Delete()
		db.immWal = nil
	}
	db.releaseStalls()
}

// compaction describes one unit of compaction work.
type compaction struct {
	level   int // source level (0 for the L0→L1 case)
	inputs0 []*Table
	inputs1 []*Table
	out     int
}

func (db *DB) maxBytesForLevel(n int) int64 {
	b := db.opt.LevelBaseBytes
	for i := 1; i < n; i++ {
		b *= int64(db.opt.LevelMult)
	}
	return b
}

func (db *DB) pickCompaction() *compaction {
	if len(db.levels[0]) >= db.opt.L0Trigger {
		c := &compaction{level: 0, inputs0: append([]*Table(nil), db.levels[0]...), out: 1}
		lo, hi := keyRange(c.inputs0)
		c.inputs1 = overlapping(db.levels[1], lo, hi)
		return c
	}
	cur := db.pickCur
	for n := 1; n < db.opt.MaxLevels-1; n++ {
		var size int64
		for _, t := range db.levels[n] {
			size += t.Bytes()
		}
		if size <= db.maxBytesForLevel(n) || len(db.levels[n]) == 0 {
			continue
		}
		idx := cur[n] % len(db.levels[n])
		cur[n]++
		t := db.levels[n][idx]
		c := &compaction{level: n, inputs0: []*Table{t}, out: n + 1}
		c.inputs1 = overlapping(db.levels[n+1], t.Min(), t.Max())
		return c
	}
	return nil
}

func keyRange(ts []*Table) (Key, Key) {
	lo, hi := ts[0].Min(), ts[0].Max()
	for _, t := range ts[1:] {
		if t.Min() < lo {
			lo = t.Min()
		}
		if t.Max() > hi {
			hi = t.Max()
		}
	}
	return lo, hi
}

func overlapping(level []*Table, lo, hi Key) []*Table {
	var out []*Table
	for _, t := range level {
		if t.Overlaps(lo, hi) {
			out = append(out, t)
		}
	}
	return out
}

func (db *DB) compact(p *sim.Proc, c *compaction) {
	// Read every input table (the compaction read traffic).
	inputs := append(append([]*Table(nil), c.inputs0...), c.inputs1...)
	for _, t := range inputs {
		if err := t.readAll(p); err != nil {
			return
		}
		db.stats.BytesCompactedIn += t.Bytes()
	}
	// Merge newest-first: inputs0 precede inputs1, and within L0 the list
	// is already newest-first.
	sources := make([][]Entry, 0, len(inputs))
	for _, t := range inputs {
		sources = append(sources, t.Entries())
	}
	bottom := c.out == db.opt.MaxLevels-1
	merged := mergeEntries(sources, bottom)

	// Write outputs split at the target table size.
	var outputs []*Table
	for start := 0; start < len(merged); {
		var bytes int64
		end := start
		for end < len(merged) && bytes < db.opt.TableTargetBytes {
			bytes += int64(merged[end].EncodedLen())
			end++
		}
		db.nextID++
		t, err := buildTable(p, db.fs, db.nextID,
			fmt.Sprintf("%s/sst-%06d", db.name, db.nextID),
			merged[start:end], db.opt.BlockBytes, db.opt.RetainValues)
		if err != nil {
			break
		}
		outputs = append(outputs, t)
		db.stats.BytesCompactedOut += t.Bytes()
		start = end
	}

	// Install: remove inputs, add outputs to the destination level sorted
	// by min key (levels >= 1 hold disjoint ranges).
	db.levels[c.level] = removeTables(db.levels[c.level], c.inputs0)
	db.levels[c.out] = removeTables(db.levels[c.out], c.inputs1)
	db.levels[c.out] = append(db.levels[c.out], outputs...)
	sort.Slice(db.levels[c.out], func(i, j int) bool {
		return db.levels[c.out][i].Min() < db.levels[c.out][j].Min()
	})
	for _, t := range inputs {
		db.dropped[t.ID] = true
		db.cache.dropTable(t.ID)
		t.drop()
	}
	db.stats.Compactions++
	db.releaseStalls()
}

func removeTables(level []*Table, gone []*Table) []*Table {
	out := level[:0:0]
	for _, t := range level {
		keep := true
		for _, g := range gone {
			if t == g {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, t)
		}
	}
	return out
}

// ---- Read path ----

// Get looks up key, returning whether it exists and the value (faithful
// mode) or its length (scale mode).
func (db *DB) Get(p *sim.Proc, key Key) (found bool, value []byte, vlen int, err error) {
	db.stats.Gets++
	for attempt := 0; ; attempt++ {
		ok, e, retry := db.getOnce(p, key)
		if retry && attempt < 4 {
			continue // a table was compacted away mid-read
		}
		if !ok || e.Tomb {
			return false, nil, 0, nil
		}
		return true, e.V, e.VLen, nil
	}
}

// getOnce runs one search pass; retry is set when a snapshot table was
// dropped while this process was parked on its block read.
func (db *DB) getOnce(p *sim.Proc, key Key) (ok bool, e Entry, retry bool) {
	if e, ok := db.mem.Get(key); ok {
		return true, e, false
	}
	if db.imm != nil {
		if e, ok := db.imm.Get(key); ok {
			return true, e, false
		}
	}
	// Snapshot the table lists: background work may mutate them while we
	// park on block IO.
	snap := make([][]*Table, len(db.levels))
	for i := range db.levels {
		snap[i] = db.levels[i]
	}
	// L0: newest to oldest, ranges overlap, every table must be checked.
	for _, t := range snap[0] {
		ok, e, retry := db.searchTable(p, t, key)
		if retry {
			return false, Entry{}, true
		}
		if ok {
			return true, e, false
		}
	}
	// L1+: disjoint ranges, binary search for the covering table.
	for n := 1; n < len(snap); n++ {
		lv := snap[n]
		i := sort.Search(len(lv), func(i int) bool { return lv[i].Max() >= key })
		if i >= len(lv) || lv[i].Min() > key {
			continue
		}
		ok, e, retry := db.searchTable(p, lv[i], key)
		if retry {
			return false, Entry{}, true
		}
		if ok {
			return true, e, false
		}
	}
	return false, Entry{}, false
}

func (db *DB) searchTable(p *sim.Proc, t *Table, key Key) (ok bool, e Entry, retry bool) {
	if key < t.Min() || key > t.Max() || !t.bloom.MayContain(key) {
		return false, Entry{}, false
	}
	bi := t.blockFor(key)
	if bi < 0 {
		return false, Entry{}, false
	}
	if !db.cache.touch(t.ID, bi) {
		db.stats.BlockReads++
		if err := t.readBlock(p, bi, db.opt.BlockBytes); err != nil {
			return false, Entry{}, true
		}
		if db.dropped[t.ID] {
			return false, Entry{}, true
		}
	}
	e, ok = t.search(bi, key)
	return ok, e, false
}

func ceil4k(n int64) int64 { return (n + 4095) &^ 4095 }
