package bench

import (
	"bytes"
	"strconv"
	"testing"

	"gimbal/internal/sim"
)

// shrinkVolumeChurn shrinks the population and windows so the smoke test
// runs in test time; the full sweep is the gimbalbench experiment.
func shrinkVolumeChurn(t *testing.T) {
	t.Helper()
	savedSSDs, savedCap := volChurnSSDs, volChurnCapacity
	savedTargets, savedOps, savedIOPS := volChurnTargets, volChurnOpsPS, volChurnIOPS
	savedWarm, savedDur := volChurnWarm, volChurnDur
	savedFW, savedFD := volChurnFairWarm, volChurnFairDur
	volChurnSSDs = 2
	volChurnCapacity = 1 << 30
	volChurnTargets = []int{300}
	volChurnOpsPS = 1000
	volChurnIOPS = 8000
	volChurnWarm = 20 * sim.Millisecond
	volChurnDur = 180 * sim.Millisecond
	volChurnFairWarm = 100 * sim.Millisecond
	volChurnFairDur = 300 * sim.Millisecond
	t.Cleanup(func() {
		volChurnSSDs, volChurnCapacity = savedSSDs, savedCap
		volChurnTargets, volChurnOpsPS, volChurnIOPS = savedTargets, savedOps, savedIOPS
		volChurnWarm, volChurnDur = savedWarm, savedDur
		volChurnFairWarm, volChurnFairDur = savedFW, savedFD
	})
}

func cell(t *testing.T, res *Result, row []string, name string) string {
	t.Helper()
	for i, h := range res.Header {
		if h == name {
			return row[i]
		}
	}
	t.Fatalf("no column %q in %v", name, res.Header)
	return ""
}

// TestVolumeChurnSmoke runs a shrunk churn sweep end to end and asserts
// the contract the full experiment reports: churn happened, IOs completed,
// the capacity audit is exact, and teardown freed every span.
func TestVolumeChurnSmoke(t *testing.T) {
	shrinkVolumeChurn(t)
	e, ok := Lookup("volume-churn")
	if !ok {
		t.Fatal("volume-churn not registered")
	}
	rp := RunReport(e)
	if len(rp.Results) != 2 {
		t.Fatalf("results = %d, want 2 (churn + fairness)", len(rp.Results))
	}
	churn := rp.Results[0]
	if len(churn.Rows) != len(volChurnTargets) {
		t.Fatalf("churn rows = %d, want %d", len(churn.Rows), len(volChurnTargets))
	}
	atoi := func(s string) int64 {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("non-numeric cell %q", s)
		}
		return v
	}
	for i, row := range churn.Rows {
		if got := cell(t, churn, row, "audit"); got != "ok" {
			t.Errorf("row %d audit = %q", i, got)
		}
		if atoi(cell(t, churn, row, "churn_ops")) == 0 {
			t.Errorf("row %d: no churn ops ran", i)
		}
		if atoi(cell(t, churn, row, "completed")) == 0 {
			t.Errorf("row %d: no IOs completed", i)
		}
		if atoi(cell(t, churn, row, "snaps")) == 0 || atoi(cell(t, churn, row, "clones")) == 0 {
			t.Errorf("row %d: churn cut no snapshots/clones: %v", i, row)
		}
		if atoi(cell(t, churn, row, "cow_copies")) == 0 {
			t.Errorf("row %d: no COW copies despite clone writes", i)
		}
		if got := atoi(cell(t, churn, row, "end_alloc_b")); got != 0 {
			t.Errorf("row %d: teardown leaked %d allocated bytes", i, got)
		}
		if atoi(cell(t, churn, row, "trims")) == 0 {
			t.Errorf("row %d: teardown trimmed nothing", i)
		}
		if atoi(cell(t, churn, row, "alloc_fail")) != 0 {
			t.Errorf("row %d: allocation failures under configured capacity", i)
		}
	}

	// Fairness: gold:silver delivered bandwidth within 10% of the 8:4
	// configured weights.
	fair := rp.Results[1]
	mbps := map[string]float64{}
	for _, row := range fair.Rows {
		v, err := strconv.ParseFloat(cell(t, fair, row, "mbps"), 64)
		if err != nil {
			t.Fatalf("bad mbps cell: %v", err)
		}
		mbps[cell(t, fair, row, "class")] = v
	}
	if mbps["silver"] <= 0 {
		t.Fatalf("silver class starved: %v", mbps)
	}
	ratio := mbps["gold"] / mbps["silver"]
	if ratio < 2.0*0.9 || ratio > 2.0*1.1 {
		t.Fatalf("gold:silver ratio %.2f outside 10%% of configured 2.0 (%v)", ratio, mbps)
	}
	if mbps["besteffort"] >= mbps["silver"] {
		t.Fatalf("besteffort not subordinate: %v", mbps)
	}
}

// TestVolumeChurnDeterministic asserts two same-seed runs render
// byte-identical reports.
func TestVolumeChurnDeterministic(t *testing.T) {
	shrinkVolumeChurn(t)
	e, _ := Lookup("volume-churn")
	if !bytes.Equal(renderReport(t, RunReport(e)), renderReport(t, RunReport(e))) {
		t.Fatal("two same-seed volume-churn runs differ")
	}
}
