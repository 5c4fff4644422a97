package bench

import (
	"bytes"
	"testing"

	"gimbal/internal/sim"
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

// shrinkEvalWindows shortens the evaluation warmup/measurement windows for
// the duration of the test so a full fig6 grid (4 cases x 4 schemes)
// completes in test time. Determinism does not depend on window length:
// every run replays the same event sequence from the same seeds.
func shrinkEvalWindows(t *testing.T) {
	t.Helper()
	savedWarm, savedDur := evalWarm, evalDur
	evalWarm = 20 * sim.Millisecond
	evalDur = 50 * sim.Millisecond
	t.Cleanup(func() { evalWarm, evalDur = savedWarm, savedDur })
}

// TestFig6Deterministic asserts two same-seed fig6 runs produce
// byte-identical reports: once serially via RunReport, and again on
// concurrent workers via RunAll. Under -race this also exercises the
// worker pool for data races between independent experiment contexts.
func TestFig6Deterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full fig6 grid; skipped in -short")
	}
	shrinkEvalWindows(t)

	e, ok := Lookup("fig6")
	if !ok {
		t.Fatal("fig6 not registered")
	}

	serial1 := renderReport(t, RunReport(e))
	serial2 := renderReport(t, RunReport(e))
	if !bytes.Equal(serial1, serial2) {
		t.Fatal("two serial same-seed fig6 runs differ")
	}

	// Three copies on three workers: every parallel run must match the
	// serial bytes, and RunAll must return them in input order.
	reports, err := RunAll([]string{"fig6", "fig6", "fig6"}, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, rp := range reports {
		if rp.Experiment != "fig6" {
			t.Fatalf("report %d is %q, want fig6", i, rp.Experiment)
		}
		if got := renderReport(t, rp); !bytes.Equal(serial1, got) {
			t.Fatalf("parallel fig6 run %d differs from serial run", i)
		}
	}
}

// TestRunAllEmitOrder asserts streamed emission follows input order even
// when later experiments finish first.
func TestRunAllEmitOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments; skipped in -short")
	}
	shrinkEvalWindows(t)

	ids := []string{"ablate-bucket", "ablate-writecost"}
	var emitted []string
	reports, err := RunAll(ids, 2, func(rp *Report) { emitted = append(emitted, rp.Experiment) })
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
	if _, err := RunAll([]string{"fig6", "nope"}, 2, nil); err == nil {
		t.Fatal("unknown id accepted")
	}
}
