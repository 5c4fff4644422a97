package kvstore

import (
	"fmt"
	"testing"
	"testing/quick"

	"gimbal/internal/blobstore"
	"gimbal/internal/nvme"
	"gimbal/internal/sim"
)

// fastBackend completes every IO after a fixed small delay.
type fastBackend struct {
	loop  *sim.Loop
	delay int64
	reads int64
	wrs   int64
}

func (f *fastBackend) Submit(io *nvme.IO) {
	if io.Op == nvme.OpRead {
		f.reads++
	} else if io.Op == nvme.OpWrite {
		f.wrs++
	}
	f.loop.After(f.delay, func() { io.Done(io, nvme.Completion{Status: nvme.StatusOK}) })
}

func testFS(loop *sim.Loop) (*blobstore.FS, []*fastBackend) {
	var backends []*blobstore.Backend
	var fbs []*fastBackend
	for i := 0; i < 2; i++ {
		fb := &fastBackend{loop: loop, delay: 30_000}
		fbs = append(fbs, fb)
		backends = append(backends, &blobstore.Backend{
			Target:   fb,
			Headroom: func() int { return 64 },
			Capacity: 4 << 30,
		})
	}
	cfg := blobstore.DefaultConfig()
	capacities := make([]int64, len(backends))
	for i, b := range backends {
		capacities[i] = b.Capacity
	}
	fs := blobstore.NewFS(cfg, blobstore.NewLocal(blobstore.NewGlobal(cfg, capacities), backends))
	return fs, fbs
}

func testDB(loop *sim.Loop, opt Options) (*DB, []*fastBackend) {
	fs, fbs := testFS(loop)
	opt.RetainValues = true
	return Open(loop, fs, "db0", opt, sim.NewRNG(5)), fbs
}

func smallOpts() Options {
	o := DefaultOptions()
	o.MemtableBytes = 8 << 10 // tiny: exercise flush/compaction quickly
	o.LevelBaseBytes = 32 << 10
	o.TableTargetBytes = 16 << 10
	o.BlockCacheBlocks = 16
	o.WALStallBytes = 64 << 10
	return o
}

func val(k Key) []byte { return []byte(fmt.Sprintf("value-%d", k)) }

// put writes key with a real value (the product only writes synthesized
// values, PutLen), so reads can check the bytes that come back.
func put(db *DB, p *sim.Proc, key Key, value []byte) error {
	return db.write(p, Entry{K: key, V: value, VLen: len(value)})
}

func TestMemtablePutGet(t *testing.T) {
	m := NewMemtable(sim.NewRNG(1))
	for k := Key(0); k < 1000; k++ {
		m.Put(Entry{K: k * 7 % 1000, V: val(k), VLen: 10})
	}
	if m.Count() != 1000 {
		t.Fatalf("count = %d", m.Count())
	}
	for k := Key(0); k < 1000; k++ {
		if _, ok := m.Get(k); !ok {
			t.Fatalf("key %d missing", k)
		}
	}
	if _, ok := m.Get(5000); ok {
		t.Fatal("absent key found")
	}
}

func TestMemtableOverwriteAndOrder(t *testing.T) {
	m := NewMemtable(sim.NewRNG(1))
	m.Put(Entry{K: 5, V: []byte("a"), VLen: 1})
	m.Put(Entry{K: 3, V: []byte("b"), VLen: 1})
	m.Put(Entry{K: 5, V: []byte("c"), VLen: 1})
	if m.Count() != 2 {
		t.Fatalf("count = %d, want 2 (overwrite)", m.Count())
	}
	all := m.All()
	if len(all) != 2 || all[0].K != 3 || all[1].K != 5 {
		t.Fatalf("order wrong: %+v", all)
	}
	if string(all[1].V) != "c" {
		t.Fatalf("overwrite lost: %q", all[1].V)
	}
}

// Property: memtable contents equal a reference map after arbitrary ops.
func TestMemtableMatchesMapProperty(t *testing.T) {
	f := func(keys []uint16) bool {
		m := NewMemtable(sim.NewRNG(2))
		ref := map[Key][]byte{}
		for i, k16 := range keys {
			k := Key(k16 % 512)
			v := []byte{byte(i)}
			m.Put(Entry{K: k, V: v, VLen: 1})
			ref[k] = v
		}
		if m.Count() != len(ref) {
			return false
		}
		for k, v := range ref {
			e, ok := m.Get(k)
			if !ok || string(e.V) != string(v) {
				return false
			}
		}
		// All() must be sorted.
		all := m.All()
		for i := 1; i < len(all); i++ {
			if all[i-1].K >= all[i].K {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBloomNoFalseNegatives(t *testing.T) {
	b := NewBloom(1000, 10)
	for k := Key(0); k < 1000; k++ {
		b.Add(k * 31)
	}
	for k := Key(0); k < 1000; k++ {
		if !b.MayContain(k * 31) {
			t.Fatalf("false negative for %d", k*31)
		}
	}
	// False positive rate should be low.
	fp := 0
	for k := Key(0); k < 10000; k++ {
		if b.MayContain(1_000_000 + k) {
			fp++
		}
	}
	if rate := float64(fp) / 10000; rate > 0.05 {
		t.Fatalf("bloom FP rate = %.3f, want < 0.05", rate)
	}
}

func TestDBPutGetAcrossFlushes(t *testing.T) {
	loop := sim.NewLoop()
	db, _ := testDB(loop, smallOpts())
	const n = 2000
	loop.Spawn("client", func(p *sim.Proc) {
		for k := Key(0); k < n; k++ {
			if err := put(db, p, k, val(k)); err != nil {
				t.Errorf("put %d: %v", k, err)
				return
			}
		}
		for k := Key(0); k < n; k++ {
			found, v, _, err := db.Get(p, k)
			if err != nil || !found {
				t.Errorf("get %d: found=%v err=%v", k, found, err)
				return
			}
			if string(v) != string(val(k)) {
				t.Errorf("get %d: value %q", k, v)
				return
			}
		}
		db.Close()
	})
	loop.Run()
	st := db.Stats()
	if st.Flushes == 0 {
		t.Fatal("no flushes occurred; memtable never filled")
	}
	if st.Compactions == 0 {
		t.Fatal("no compactions occurred")
	}
}

func TestDBGetAbsentKey(t *testing.T) {
	loop := sim.NewLoop()
	db, _ := testDB(loop, smallOpts())
	loop.Spawn("client", func(p *sim.Proc) {
		for k := Key(0); k < 500; k++ {
			if err := put(db, p, k, val(k)); err != nil {
				t.Errorf("put: %v", err)
			}
		}
		found, _, _, _ := db.Get(p, 99999)
		if found {
			t.Error("absent key reported found")
		}
		db.Close()
	})
	loop.Run()
}

func TestDBDeleteMasksOlderVersions(t *testing.T) {
	loop := sim.NewLoop()
	db, _ := testDB(loop, smallOpts())
	loop.Spawn("client", func(p *sim.Proc) {
		if err := put(db, p, 42, val(42)); err != nil {
			t.Errorf("put: %v", err)
		}
		// Push key 42 into an SSTable by writing enough other keys.
		for k := Key(100); k < 1500; k++ {
			if err := put(db, p, k, val(k)); err != nil {
				t.Errorf("put: %v", err)
			}
		}
		if err := db.write(p, Entry{K: 42, Tomb: true}); err != nil {
			t.Errorf("delete: %v", err)
		}
		found, _, _, _ := db.Get(p, 42)
		if found {
			t.Error("deleted key still found")
		}
		// More churn so the tombstone compacts down.
		for k := Key(2000); k < 3500; k++ {
			if err := put(db, p, k, val(k)); err != nil {
				t.Errorf("put: %v", err)
			}
		}
		found, _, _, _ = db.Get(p, 42)
		if found {
			t.Error("deleted key resurrected after compaction")
		}
		db.Close()
	})
	loop.Run()
}

func TestDBOverwriteReturnsLatest(t *testing.T) {
	loop := sim.NewLoop()
	db, _ := testDB(loop, smallOpts())
	loop.Spawn("client", func(p *sim.Proc) {
		for round := 0; round < 3; round++ {
			for k := Key(0); k < 800; k++ {
				v := []byte(fmt.Sprintf("r%d-%d", round, k))
				if err := put(db, p, k, v); err != nil {
					t.Errorf("put: %v", err)
				}
			}
		}
		for k := Key(0); k < 800; k++ {
			found, v, _, _ := db.Get(p, k)
			if !found || string(v) != fmt.Sprintf("r2-%d", k) {
				t.Errorf("key %d: found=%v v=%q, want r2 version", k, found, v)
				return
			}
		}
		db.Close()
	})
	loop.Run()
}

func TestDBCompactionReducesL0(t *testing.T) {
	loop := sim.NewLoop()
	opt := smallOpts()
	db, _ := testDB(loop, opt)
	loop.Spawn("client", func(p *sim.Proc) {
		for k := Key(0); k < 6000; k++ {
			if err := put(db, p, k, val(k)); err != nil {
				t.Errorf("put: %v", err)
			}
		}
		db.Close()
	})
	loop.Run()
	counts := db.LevelTableCounts()
	if counts[0] >= opt.L0Stall {
		t.Fatalf("L0 never compacted: %v", counts)
	}
	deeper := 0
	for _, c := range counts[1:] {
		deeper += c
	}
	if deeper == 0 {
		t.Fatalf("no tables below L0: %v", counts)
	}
}

func TestDBWriteStallUnderSlowBackend(t *testing.T) {
	loop := sim.NewLoop()
	fs, fbs := testFS(loop)
	for _, fb := range fbs {
		fb.delay = 20_000_000 // 20ms per IO: flushes crawl
	}
	opt := smallOpts()
	opt.RetainValues = true
	db := Open(loop, fs, "slow", opt, sim.NewRNG(5))
	loop.Spawn("client", func(p *sim.Proc) {
		for k := Key(0); k < 3000; k++ {
			if err := put(db, p, k, val(k)); err != nil {
				t.Errorf("put: %v", err)
			}
		}
		db.Close()
	})
	loop.Run()
	if db.Stats().StallNs == 0 {
		t.Fatal("no write stalls despite a crawling backend")
	}
}

func TestDBBlockCacheServesRepeatReads(t *testing.T) {
	loop := sim.NewLoop()
	opt := smallOpts()
	opt.BlockCacheBlocks = 4096
	db, fbs := testDB(loop, opt)
	loop.Spawn("client", func(p *sim.Proc) {
		for k := Key(0); k < 1000; k++ {
			if err := put(db, p, k, val(k)); err != nil {
				t.Errorf("put: %v", err)
			}
		}
		// First read warms the cache; repeats must not add device reads.
		if _, _, _, err := db.Get(p, 10); err != nil {
			t.Errorf("get: %v", err)
		}
		before := fbs[0].reads + fbs[1].reads
		for i := 0; i < 50; i++ {
			if _, _, _, err := db.Get(p, 10); err != nil {
				t.Errorf("get: %v", err)
			}
		}
		after := fbs[0].reads + fbs[1].reads
		if after != before {
			t.Errorf("repeat reads caused %d device reads", after-before)
		}
		db.Close()
	})
	loop.Run()
	if db.Stats().CacheHitRate == 0 {
		t.Fatal("cache never hit")
	}
}

func TestFastLoadThenGet(t *testing.T) {
	loop := sim.NewLoop()
	db, _ := testDB(loop, smallOpts())
	loop.Spawn("client", func(p *sim.Proc) {
		if err := FastLoad(p, db, 5000, 100); err != nil {
			t.Errorf("load: %v", err)
			return
		}
		for _, k := range []Key{0, 1, 2500, 4999} {
			found, _, vlen, err := db.Get(p, k)
			if err != nil || !found || vlen != 100 {
				t.Errorf("get %d: found=%v vlen=%d err=%v", k, found, vlen, err)
			}
		}
		if found, _, _, _ := db.Get(p, 5000); found {
			t.Error("key beyond load found")
		}
		db.Close()
	})
	loop.Run()
}

func TestYCSBMixes(t *testing.T) {
	for _, name := range YCSBWorkloads {
		mix, err := YCSBMix(name)
		if err != nil {
			t.Fatal(err)
		}
		sum := mix.Read + mix.Update + mix.Insert + mix.RMW
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("workload %s mix sums to %v", name, sum)
		}
	}
	if _, err := YCSBMix("Z"); err == nil {
		t.Fatal("unknown workload should be rejected")
	}
}

func TestYCSBRunnerOperates(t *testing.T) {
	loop := sim.NewLoop()
	db, _ := testDB(loop, smallOpts())
	loop.Spawn("ycsb", func(p *sim.Proc) {
		if err := FastLoad(p, db, 10000, 100); err != nil {
			t.Errorf("load: %v", err)
			return
		}
		r, err := NewYCSBRunner(db, 42, "A", 10000, 100)
		if err != nil {
			t.Error(err)
			return
		}
		if err := r.RunOps(p, 2000); err != nil {
			t.Errorf("run: %v", err)
		}
		if r.ReadLat.Count() == 0 || r.WriteLat.Count() == 0 {
			t.Errorf("A should mix reads (%d) and writes (%d)",
				r.ReadLat.Count(), r.WriteLat.Count())
		}
		// Zipfian reads over loaded keys must mostly hit.
		if float64(r.NotFound) > 0.02*float64(r.ReadLat.Count()) {
			t.Errorf("not-found rate too high: %d of %d", r.NotFound, r.ReadLat.Count())
		}
		db.Close()
	})
	loop.Run()
}

func TestYCSBInsertWorkloadGrowsKeyspace(t *testing.T) {
	loop := sim.NewLoop()
	db, _ := testDB(loop, smallOpts())
	loop.Spawn("ycsb", func(p *sim.Proc) {
		if err := FastLoad(p, db, 5000, 100); err != nil {
			t.Errorf("load: %v", err)
			return
		}
		r, err := NewYCSBRunner(db, 42, "D", 5000, 100)
		if err != nil {
			t.Error(err)
			return
		}
		if err := r.RunOps(p, 4000); err != nil {
			t.Errorf("run: %v", err)
		}
		if r.records <= 5000 {
			t.Error("D workload never inserted")
		}
		db.Close()
	})
	loop.Run()
}
