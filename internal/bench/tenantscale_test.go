package bench

import (
	"bytes"
	"fmt"
	"strconv"
	"testing"

	"gimbal/internal/sim"
)

// shrinkTenantScale shrinks the population sweep and windows so the smoke
// test runs in test time; the full sweep is the gimbalbench experiment.
func shrinkTenantScale(t *testing.T) {
	t.Helper()
	savedPops, savedChurnPop := tenantScalePops, tenantScaleChurnPop
	savedWarm, savedDur := tenantScaleWarm, tenantScaleDur
	savedIOPS, savedSeries := tenantScaleIOPS, tenantScaleSeries
	tenantScalePops = []int{100, 5_000}
	tenantScaleChurnPop = 5_000
	tenantScaleWarm = 20 * sim.Millisecond
	tenantScaleDur = 100 * sim.Millisecond
	tenantScaleIOPS = 30_000
	tenantScaleSeries = 1024
	t.Cleanup(func() {
		tenantScalePops, tenantScaleChurnPop = savedPops, savedChurnPop
		tenantScaleWarm, tenantScaleDur = savedWarm, savedDur
		tenantScaleIOPS, tenantScaleSeries = savedIOPS, savedSeries
	})
}

// TestTenantScaleSmoke runs a shrunk population sweep end to end and
// asserts the row structure the full experiment promises: IOs complete at
// every population, per-tenant obs series stay within the budget with the
// tail collapsed into the overflow series, and the churn row replaces
// tenants without wedging the switch.
func TestTenantScaleSmoke(t *testing.T) {
	shrinkTenantScale(t)
	e, ok := Lookup("tenant-scale")
	if !ok {
		t.Fatal("tenant-scale not registered")
	}
	rp := RunReport(e)
	if len(rp.Results) != 1 {
		t.Fatalf("results = %d, want 1", len(rp.Results))
	}
	res := rp.Results[0]
	if len(res.Rows) != len(tenantScalePops)+1 {
		t.Fatalf("rows = %d, want %d", len(res.Rows), len(tenantScalePops)+1)
	}
	col := func(row []string, name string) string {
		for i, h := range res.Header {
			if h == name {
				return row[i]
			}
		}
		t.Fatalf("no column %q", name)
		return ""
	}
	atoi := func(s string) int {
		v, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("non-numeric cell %q", s)
		}
		return v
	}
	for i, row := range res.Rows {
		if atoi(col(row, "completed")) == 0 {
			t.Fatalf("row %d completed no IOs: %v", i, row)
		}
		series := atoi(col(row, "obs_series"))
		overflow := atoi(col(row, "obs_overflow"))
		pop := atoi(col(row, "tenants"))
		if series > tenantScaleSeries {
			t.Fatalf("row %d: %d series exceeds budget %d", i, series, tenantScaleSeries)
		}
		if pop > tenantScaleSeries {
			if overflow != 1 {
				t.Fatalf("row %d: population %d over budget, overflow series = %d, want 1", i, pop, overflow)
			}
			if series != tenantScaleSeries {
				t.Fatalf("row %d: series = %d, want budget %d exactly", i, series, tenantScaleSeries)
			}
		} else if overflow != 0 && col(row, "churn_s") == "0" {
			t.Fatalf("row %d: population %d under budget but overflow series exists", i, pop)
		}
	}
	// Churn row: replacements happened.
	churnRow := res.Rows[len(res.Rows)-1]
	if col(churnRow, "churn_s") == "0" {
		t.Fatal("last row should be the churn row")
	}
}

// TestTenantScaleSimDeterministic asserts two runs render byte-identical
// reports: the scenario engine and the switch are seed-deterministic. It
// holds under -race, where TestSweepGolden is skipped.
func TestTenantScaleSimDeterministic(t *testing.T) {
	shrinkTenantScale(t)
	e, _ := Lookup("tenant-scale")
	if !bytes.Equal(renderReport(t, RunReport(e)), renderReport(t, RunReport(e))) {
		t.Fatal("two same-seed tenant-scale runs differ")
	}
}

// BenchmarkTenantScale prices the tenant dimension in host time: each
// iteration builds and warms tenant-scale's full-size rig at one
// population and times its measured window. ns/IO is that time over the
// IOs the window completed. Every iteration also pays an untimed rig
// build, so a few (-benchtime 5x) are enough.
func BenchmarkTenantScale(b *testing.B) {
	for _, pop := range []int{100, 100_000} {
		b.Run(fmt.Sprintf("tenants=%d", pop), func(b *testing.B) {
			var ios int64
			b.StopTimer()
			for i := 0; i < b.N; i++ {
				rig, sc, stop := warmTenantScale(pop, 0)
				b.StartTimer()
				rig.Loop.RunUntil(stop)
				b.StopTimer()
				ios += sc.Completed
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ios), "ns/IO")
		})
	}
}
