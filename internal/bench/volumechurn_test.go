package bench

import "testing"

// TestVolumeChurnSmoke runs the Test-size churn sweep end to end and asserts
// the contract the full experiment reports: churn happened, IOs completed,
// the capacity audit is exact, and teardown freed every span.
func TestVolumeChurnSmoke(t *testing.T) {
	e, ok := Lookup("volume-churn")
	if !ok {
		t.Fatal("volume-churn not registered")
	}
	rp := RunReport(e, Test)
	if len(rp.Results) != 2 {
		t.Fatalf("results = %d, want 2 (churn + fairness)", len(rp.Results))
	}
	churn := rp.Results[0]
	if want := len(Test.scale().volumes.targets); len(churn.Rows) != want {
		t.Fatalf("churn rows = %d, want %d", len(churn.Rows), want)
	}
	for i, row := range churn.Rows {
		if got := cell(t, churn, row, "audit"); got != "ok" {
			t.Errorf("row %d audit = %q", i, got)
		}
		if cellInt(t, churn, row, "churn_ops") == 0 {
			t.Errorf("row %d: no churn ops ran", i)
		}
		if cellInt(t, churn, row, "completed") == 0 {
			t.Errorf("row %d: no IOs completed", i)
		}
		if cellInt(t, churn, row, "snaps") == 0 || cellInt(t, churn, row, "clones") == 0 {
			t.Errorf("row %d: churn cut no snapshots/clones: %v", i, row)
		}
		if cellInt(t, churn, row, "cow_copies") == 0 {
			t.Errorf("row %d: no COW copies despite clone writes", i)
		}
		if got := cellInt(t, churn, row, "end_alloc_b"); got != 0 {
			t.Errorf("row %d: teardown leaked %d allocated bytes", i, got)
		}
		if cellInt(t, churn, row, "trims") == 0 {
			t.Errorf("row %d: teardown trimmed nothing", i)
		}
		if cellInt(t, churn, row, "alloc_fail") != 0 {
			t.Errorf("row %d: allocation failures under configured capacity", i)
		}
	}

	// Fairness: gold:silver delivered bandwidth within 10% of the 8:4
	// configured weights.
	fair := rp.Results[1]
	mbps := map[string]float64{}
	for _, row := range fair.Rows {
		mbps[cell(t, fair, row, "class")] = cellF(t, cell(t, fair, row, "mbps"))
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
	checkDeterministic(t, 0, "volume-churn")
}
