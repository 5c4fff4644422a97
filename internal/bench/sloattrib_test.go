package bench

import "testing"

// TestSLOAttribTable is the acceptance assertion for the attribution
// experiment: under the brownout timeline the table must separate the two
// tenant classes — healthy tenants meet the objective with ~zero burn and a
// device-bound tail, faulted tenants blow their error budget with a
// queue-dominated tail.
func TestSLOAttribTable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full brownout timeline with full tracing; skipped in -short")
	}
	res := runSLOAttribExp(NewCtx(Full))
	if len(res) != 1 {
		t.Fatalf("slo-attrib produced %d results", len(res))
	}
	rows := res[0].Rows
	if len(rows) != 7 {
		t.Fatalf("slo-attrib produced %d rows, want 7 (3 healthy + 4 faulted)", len(rows))
	}
	// Header: tenant, ios, p999_us, fabric_us, queue_us, vslot_us,
	// pacing_us, device_us, gc_us, complete_us, met_pct, burn@fault_end.
	const (
		colIOs = 1 + iota
		colP999
		colFabric
		colQueue
		colVslot
		colPacing
		colDevice
		colGC
		colComplete
		colMet
		colBurn
	)
	for _, row := range rows[:3] {
		if met := cellF(t, row[colMet]); met < 99 {
			t.Errorf("%s met %.1f%% of its objective, want ≥ 99%%", row[0], met)
		}
		if burn := cellF(t, row[colBurn]); burn > 0.5 {
			t.Errorf("%s burn rate %.1f at fault end, want ~0", row[0], burn)
		}
		if dev, p999 := cellF(t, row[colDevice]), cellF(t, row[colP999]); dev < p999/2 {
			t.Errorf("%s tail not device-bound: device %.1fµs of p99.9 %.1fµs", row[0], dev, p999)
		}
	}
	for _, row := range rows[3:] {
		if cellF(t, row[colIOs]) == 0 {
			t.Fatalf("%s captured no traces", row[0])
		}
		met := cellF(t, row[colMet])
		if met > 60 {
			t.Errorf("%s met %.1f%% during the brownout, want far below the 99.9%% goal", row[0], met)
		}
		if burn := cellF(t, row[colBurn]); burn <= 1 {
			t.Errorf("%s burn rate %.2f at fault end, want > 1 (budget burning)", row[0], burn)
		}
		queue, p999 := cellF(t, row[colQueue]), cellF(t, row[colP999])
		if queue < p999/2 {
			t.Errorf("%s tail not queue-dominated: queue %.1fµs of p99.9 %.1fµs", row[0], queue, p999)
		}
	}
	// The phase columns must decompose the tail: their sum stays within the
	// p99.9 envelope's order of magnitude (each column is a mean across the
	// tail set, so exact equality is not expected).
	for _, row := range rows {
		var sum float64
		for c := colFabric; c <= colComplete; c++ {
			sum += cellF(t, row[c])
		}
		if p999 := cellF(t, row[colP999]); sum < p999/2 {
			t.Errorf("%s phases sum to %.1fµs, less than half of p99.9 %.1fµs — attribution leak", row[0], sum, p999)
		}
	}
}

// TestSLOAttribDeterministic asserts the attribution report is
// seed-deterministic and byte-identical under -parallel.
func TestSLOAttribDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the timeline several times; skipped in -short")
	}
	checkDeterministic(t, 2, "slo-attrib")
}
