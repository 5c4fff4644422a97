package kvstore

import (
	"fmt"
	"strings"

	"gimbal/internal/sim"
	"gimbal/internal/stats"
	"gimbal/internal/workload"
)

// Mix is the operation mix of a YCSB core workload.
type Mix struct {
	Read, Update, Insert, RMW float64
	Latest                    bool // key distribution skews to recent inserts (D)
}

// YCSBMix returns the core workload mixes of the paper's evaluation
// (workload E, range scans, is not part of it).
func YCSBMix(name string) (Mix, error) {
	switch strings.ToUpper(name) {
	case "A":
		return Mix{Read: 0.5, Update: 0.5}, nil
	case "B":
		return Mix{Read: 0.95, Update: 0.05}, nil
	case "C":
		return Mix{Read: 1}, nil
	case "D":
		return Mix{Read: 0.95, Insert: 0.05, Latest: true}, nil
	case "F":
		return Mix{Read: 0.5, RMW: 0.5}, nil
	}
	return Mix{}, fmt.Errorf("kvstore: unknown YCSB workload %q", name)
}

// YCSBWorkloads is the paper's benchmark set (Fig 10-13).
var YCSBWorkloads = []string{"A", "B", "C", "D", "F"}

// FastLoad bulk-ingests n records (keys 0..n-1, valueLen-byte values)
// directly into the DB's bottom level as sorted tables — the offline load
// phase, equivalent to RocksDB SST ingestion. It writes the real table
// bytes through the blobstore.
func FastLoad(p *sim.Proc, db *DB, n int, valueLen int) error {
	if n <= 0 {
		return fmt.Errorf("kvstore: FastLoad of %d records", n)
	}
	bottom := db.opt.MaxLevels - 1
	perTable := int(db.opt.TableTargetBytes / int64(valueLen+13))
	if perTable < 1 {
		perTable = 1
	}
	for start := 0; start < n; start += perTable {
		end := start + perTable
		if end > n {
			end = n
		}
		entries := make([]Entry, 0, end-start)
		for k := start; k < end; k++ {
			entries = append(entries, Entry{K: Key(k), VLen: valueLen})
		}
		db.nextID++
		t, err := buildTable(p, db.fs, db.nextID,
			fmt.Sprintf("%s/load-%06d", db.name, db.nextID),
			entries, db.opt.BlockBytes, db.opt.RetainValues)
		if err != nil {
			return err
		}
		db.levels[bottom] = append(db.levels[bottom], t)
	}
	return nil
}

// YCSBRunner drives one DB instance with a YCSB workload from cooperative
// worker processes.
type YCSBRunner struct {
	DB       *DB
	mix      Mix
	rng      *sim.RNG
	zipf     *workload.Zipf
	latest   *workload.Latest
	records  uint64
	valueLen int

	Ops      int64
	ReadLat  *stats.Histogram
	WriteLat *stats.Histogram
	NotFound int64
}

// NewYCSBRunner builds a runner over an already-loaded DB.
func NewYCSBRunner(db *DB, seed uint64, workloadName string, records int, valueLen int) (*YCSBRunner, error) {
	mix, err := YCSBMix(workloadName)
	if err != nil {
		return nil, err
	}
	rng := sim.NewRNG(seed)
	r := &YCSBRunner{
		DB:       db,
		mix:      mix,
		rng:      rng,
		records:  uint64(records),
		valueLen: valueLen,
		ReadLat:  stats.NewHistogram(),
		WriteLat: stats.NewHistogram(),
	}
	r.zipf = workload.NewZipf(rng.Fork(), uint64(records), 0.99)
	if mix.Latest {
		r.latest = workload.NewLatest(rng.Fork(), uint64(records), 0.99)
	}
	return r, nil
}

// ResetStats clears measurement state (end of warmup).
func (r *YCSBRunner) ResetStats() {
	r.Ops = 0
	r.NotFound = 0
	r.ReadLat.Reset()
	r.WriteLat.Reset()
}

// RunOps performs exactly n operations.
func (r *YCSBRunner) RunOps(p *sim.Proc, n int) error {
	for i := 0; i < n; i++ {
		if err := r.step(p); err != nil {
			return err
		}
	}
	return nil
}

func (r *YCSBRunner) pickKey() Key {
	if r.latest != nil {
		return Key(r.latest.Next())
	}
	return Key(r.zipf.ScatteredNext() % r.records)
}

func (r *YCSBRunner) step(p *sim.Proc) error {
	r.Ops++
	u := r.rng.Float64()
	switch {
	case u < r.mix.Read:
		return r.doRead(p)
	case u < r.mix.Read+r.mix.Update:
		return r.doWrite(p, r.pickKey())
	case u < r.mix.Read+r.mix.Update+r.mix.Insert:
		key := Key(r.records)
		r.records++
		if r.latest != nil {
			r.latest.Insert()
		}
		return r.doWrite(p, key)
	default: // read-modify-write
		if err := r.doRead(p); err != nil {
			return err
		}
		return r.doWrite(p, r.pickKey())
	}
}

func (r *YCSBRunner) doRead(p *sim.Proc) error {
	key := r.pickKey()
	t0 := p.Now()
	found, _, _, err := r.DB.Get(p, key)
	r.ReadLat.Record(p.Now() - t0)
	if !found {
		r.NotFound++
	}
	return err
}

func (r *YCSBRunner) doWrite(p *sim.Proc, key Key) error {
	t0 := p.Now()
	err := r.DB.PutLen(p, key, r.valueLen)
	r.WriteLat.Record(p.Now() - t0)
	return err
}
