package bench

import (
	"bytes"
	"testing"
)

// renderReport serializes a whole report for byte-identity comparison.
func renderReport(t *testing.T, rp *Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rp.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes()
}

// checkDeterministic runs each experiment twice serially at Test size, then
// copies of each on concurrent RunAll workers, and fails unless every report
// matches the first serial run byte for byte and RunAll returns them in
// input order. Under -race this also exercises the worker pool for data
// races between independent experiment contexts.
func checkDeterministic(t *testing.T, copies int, ids ...string) {
	t.Helper()
	serial := map[string][]byte{}
	var all []string
	for _, id := range ids {
		e, ok := Lookup(id)
		if !ok {
			t.Fatalf("%s not registered", id)
		}
		serial[id] = renderReport(t, RunReport(e, Test))
		if again := renderReport(t, RunReport(e, Test)); !bytes.Equal(serial[id], again) {
			t.Fatalf("two serial same-seed %s runs differ", id)
		}
		for range copies {
			all = append(all, id)
		}
	}
	if len(all) == 0 {
		return
	}
	reports, err := RunAll(all, Test, len(all), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, rp := range reports {
		if rp.Experiment != all[i] {
			t.Fatalf("report %d is %q, want %q", i, rp.Experiment, all[i])
		}
		if got := renderReport(t, rp); !bytes.Equal(serial[all[i]], got) {
			t.Fatalf("parallel %s run %d differs from serial run", all[i], i)
		}
	}
}

// TestFig6Deterministic runs the full fig6 grid (4 cases x 4 schemes)
// serially and as three copies on three workers. Determinism does not
// depend on window length: every run replays the same event sequence from
// the same seeds.
func TestFig6Deterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full fig6 grid; skipped in -short")
	}
	checkDeterministic(t, 3, "fig6")
}

// TestRunAllEmitOrder asserts streamed emission follows input order even
// when later experiments finish first.
func TestRunAllEmitOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments; skipped in -short")
	}
	ids := []string{"ablate-bucket", "ablate-writecost"}
	var emitted []string
	reports, err := RunAll(ids, Test, 2, func(rp *Report) { emitted = append(emitted, rp.Experiment) })
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(ids) {
		t.Fatalf("got %d reports, want %d", len(reports), len(ids))
	}
	for i, id := range ids {
		if reports[i].Experiment != id {
			t.Fatalf("reports[%d] = %q, want %q", i, reports[i].Experiment, id)
		}
		if emitted[i] != id {
			t.Fatalf("emitted[%d] = %q, want %q", i, emitted[i], id)
		}
	}
}

func TestRunAllUnknownID(t *testing.T) {
	if _, err := RunAll([]string{"fig6", "nope"}, Test, 2, nil); err == nil {
		t.Fatal("unknown id accepted")
	}
}
