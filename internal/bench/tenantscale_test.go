package bench

import (
	"fmt"
	"testing"
)

// TestTenantScaleSmoke runs the Test-size population sweep end to end and
// asserts the row structure the full experiment promises: IOs complete at
// every population, per-tenant obs series stay within the budget with the
// tail collapsed into the overflow series, and the churn row replaces
// tenants without wedging the switch.
func TestTenantScaleSmoke(t *testing.T) {
	ts := Test.scale().tenants
	e, ok := Lookup("tenant-scale")
	if !ok {
		t.Fatal("tenant-scale not registered")
	}
	rp := RunReport(e, Test)
	if len(rp.Results) != 1 {
		t.Fatalf("results = %d, want 1", len(rp.Results))
	}
	res := rp.Results[0]
	if len(res.Rows) != len(ts.pops)+1 {
		t.Fatalf("rows = %d, want %d", len(res.Rows), len(ts.pops)+1)
	}
	for i, row := range res.Rows {
		if cellInt(t, res, row, "completed") == 0 {
			t.Fatalf("row %d completed no IOs: %v", i, row)
		}
		series := cellInt(t, res, row, "obs_series")
		overflow := cellInt(t, res, row, "obs_overflow")
		pop := cellInt(t, res, row, "tenants")
		if series > ts.series {
			t.Fatalf("row %d: %d series exceeds budget %d", i, series, ts.series)
		}
		if pop > ts.series {
			if overflow != 1 {
				t.Fatalf("row %d: population %d over budget, overflow series = %d, want 1", i, pop, overflow)
			}
			if series != ts.series {
				t.Fatalf("row %d: series = %d, want budget %d exactly", i, series, ts.series)
			}
		} else if overflow != 0 && cell(t, res, row, "churn_s") == "0" {
			t.Fatalf("row %d: population %d under budget but overflow series exists", i, pop)
		}
	}
	// Churn row: replacements happened.
	churnRow := res.Rows[len(res.Rows)-1]
	if cell(t, res, churnRow, "churn_s") == "0" {
		t.Fatal("last row should be the churn row")
	}
}

// TestTenantScaleSimDeterministic asserts two runs render byte-identical
// reports: the scenario engine and the switch are seed-deterministic. It
// holds under -race, where TestSweepGolden is skipped.
func TestTenantScaleSimDeterministic(t *testing.T) {
	checkDeterministic(t, 0, "tenant-scale")
}

// BenchmarkTenantScale prices the tenant dimension in host time: each
// iteration builds and runs tenant-scale's full-size rig at one population,
// and two timed events start the timer at the end of the warm-up and stop
// it at the end of the measured window. ns/IO is that time over the IOs the
// window completed. Every iteration also pays an untimed rig build, so a
// few (-benchtime 5x) are enough.
func BenchmarkTenantScale(b *testing.B) {
	w := Full.scale().tenants.window
	for _, pop := range []int{100, 100_000} {
		b.Run(fmt.Sprintf("tenants=%d", pop), func(b *testing.B) {
			var ios int64
			b.StopTimer()
			for i := 0; i < b.N; i++ {
				rig, sc := tenantScaleRig(Full, pop, 0,
					TimedEvent{At: w.warm, Do: func(*FioRun) { b.StartTimer() }},
					TimedEvent{At: w.warm + w.dur, Do: func(*FioRun) { b.StopTimer() }})
				NewCtx(Full).Run(rig)
				ios += sc.Completed
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ios), "ns/IO")
		})
	}
}
