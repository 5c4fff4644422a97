// KVStore: the §4.3 case study end to end — four LSM-tree key-value store
// instances (the RocksDB stand-in) over a replicated blobstore spanning
// one Gimbal JBOF, running YCSB-A. The rack itself — targets and sessions
// (internal/fabric), the hierarchical blob allocator with two-way
// replication and credit-driven read balancing (internal/blobstore), the
// LSM tree (internal/kvstore) — is the one gimbalbench's fig10–fig13 run:
// bench.Ctx.RunYCSB. This example is its parameters and its printing.
//
//	go run ./examples/kvstore
package main

import (
	"fmt"

	"gimbal/internal/bench"
	"gimbal/internal/fabric"
	"gimbal/internal/sim"
)

func main() {
	cfg := bench.DefaultYCSB(fabric.SchemeGimbal)
	cfg.Instances = 4
	cfg.JBOFs = 1
	cfg.Records = 60_000
	cfg.Dur = 2 * sim.Second

	fmt.Printf("loading %d records x %d instances, then YCSB-A for %.0fs...\n",
		cfg.Records, cfg.Instances, float64(cfg.Dur)/1e9)
	r, err := bench.NewCtx(bench.Full).RunYCSB(cfg, "A", 7)
	if err != nil {
		panic(err)
	}
	fmt.Printf("load finished at t=%.2fs\n", float64(r.LoadedAt)/1e9)
	for i, st := range r.DBStats {
		fmt.Printf("db%d: %d ops, %d flushes, %d compactions, cache hit %.0f%%, "+
			"stall %.0fms\n", i, r.Ops[i], st.Flushes, st.Compactions,
			st.CacheHitRate*100, float64(st.StallNs)/1e6)
	}
	fmt.Printf("\nYCSB-A aggregate: %.0f KIOPS, read avg %.0fus p99.9 %.0fus\n",
		r.KIOPS, r.ReadLat.Mean()/1e3, float64(r.ReadLat.P999())/1e3)
	fmt.Printf("ssd0 virtual view: target %.0f MB/s, write cost %.1f\n",
		r.SSD0View.TargetRateBps/1e6, r.SSD0View.WriteCost)
}
