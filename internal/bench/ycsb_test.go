package bench

import (
	"reflect"
	"testing"

	"gimbal/internal/fabric"
	"gimbal/internal/sim"
)

// ycsbDigest is everything a fig10–fig13 row is computed from.
func ycsbDigest(r YCSBResult) []any {
	return []any{r.KIOPS, r.Ops, r.DBStats, r.LoadedAt,
		r.ReadLat.Count(), r.ReadLat.Mean(), r.ReadLat.P999(),
		r.WriteLat.Count(), r.WriteLat.Mean(), r.WriteLat.P999()}
}

// TestYCSBRackShrunk runs the fig10–fig13 rack at a size that fits a unit
// test (2 instances over 1 JBOF × 2 SSDs): the rack loads and serves
// operations, a rerun with the same seed is identical, and turning client
// flow control off (fig13's "vanilla" row) changes the result — so the knob
// reaches the sessions.
func TestYCSBRackShrunk(t *testing.T) {
	cfg := DefaultYCSB(fabric.SchemeGimbal)
	cfg.Instances = 2
	cfg.JBOFs = 1
	cfg.SSDsPer = 2
	cfg.Records = 2000
	cfg.Warm = 20 * sim.Millisecond
	cfg.Dur = 100 * sim.Millisecond

	run := func(cfg YCSBConfig) YCSBResult {
		t.Helper()
		r, err := RunYCSB(cfg, "A", 17)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a := run(cfg)
	if a.KIOPS <= 0 || a.ReadLat.Count() == 0 || a.WriteLat.Count() == 0 || a.LoadedAt <= 0 {
		t.Fatalf("rack served nothing: %.1f KIOPS, %d reads, %d writes, loaded at %d",
			a.KIOPS, a.ReadLat.Count(), a.WriteLat.Count(), a.LoadedAt)
	}
	if len(a.Ops) != cfg.Instances || len(a.DBStats) != cfg.Instances {
		t.Fatalf("per-instance results: %d ops, %d stats, want %d", len(a.Ops), len(a.DBStats), cfg.Instances)
	}
	for i, ops := range a.Ops {
		if ops == 0 {
			t.Fatalf("instance %d completed no operations", i)
		}
	}
	if a.SSD0View.TargetRateBps <= 0 {
		t.Fatalf("gimbal rack reports no virtual view: %+v", a.SSD0View)
	}
	if b := run(cfg); !reflect.DeepEqual(ycsbDigest(a), ycsbDigest(b)) {
		t.Fatalf("same seed, different runs:\n%v\n%v", ycsbDigest(a), ycsbDigest(b))
	}
	cfg.NoFlowControl = true
	if c := run(cfg); reflect.DeepEqual(ycsbDigest(a), ycsbDigest(c)) {
		t.Fatalf("NoFlowControl did not change the run: %v", ycsbDigest(c))
	}
}
