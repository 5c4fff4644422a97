package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"strings"
	"testing"

	"gimbal/internal/sim"
)

var updateSweepGolden = flag.Bool("update-sweep-golden", false, "rewrite testdata/sweep_golden.json from this tree")

// sweepGoldenIDs is every simulated experiment with a shrink hook (wall-clock
// columns — tenant-scale, tab1, live-tcp — are out; the tables left out here
// are diffed full-size between parent and change when the harness moves).
var sweepGoldenIDs = []string{
	"fig6", "fig7", "fig8", "fig58",
	"ablate-thresh", "ablate-bucket", "ablate-writecost", "ablate-vslot", "ablate-credit",
	"chaos-brownout", "chaos-fabric", "chaos-disconnect", "slo-attrib",
	"tier-sweep", "volume-churn",
	"fig4", "fig15", "fig19", "fig21", "fig22",
}

func shrinkMicroWindows(t *testing.T) {
	t.Helper()
	savedWarm, savedDur := microWarm, microDur
	microWarm = 10 * sim.Millisecond
	microDur = 30 * sim.Millisecond
	t.Cleanup(func() { microWarm, microDur = savedWarm, savedDur })
}

// sweepGoldenEntry is one experiment's tables in testdata/sweep_golden.json.
type sweepGoldenEntry struct {
	Experiment string    `json:"experiment"`
	Results    []*Result `json:"results"`
}

// TestSweepGolden pins the printed rows of every shrinkable simulated
// experiment at test-sized windows: the harness may be rearranged freely as
// long as no cell of this file moves.
func TestSweepGolden(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("runs twenty shrunk experiments; skipped in -short and under -race")
	}
	shrinkEvalWindows(t)
	shrinkMicroWindows(t)
	shrinkChaosUnit(t)
	shrinkTierSweep(t)
	shrinkVolumeChurn(t)

	reports, err := RunAll(sweepGoldenIDs, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]sweepGoldenEntry, len(reports))
	for i, rp := range reports {
		got[i] = sweepGoldenEntry{rp.Experiment, rp.Results}
	}
	const path = "testdata/sweep_golden.json"
	if *updateSweepGolden {
		b, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []sweepGoldenEntry
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s holds %d experiments, the sweep ran %d", path, len(want), len(got))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Experiment != w.Experiment || len(g.Results) != len(w.Results) {
			t.Fatalf("entry %d: got %s (%d tables), want %s (%d tables)",
				i, g.Experiment, len(g.Results), w.Experiment, len(w.Results))
		}
		for ti := range g.Results {
			gj, _ := json.Marshal(g.Results[ti])
			wj, _ := json.Marshal(w.Results[ti])
			if bytes.Equal(gj, wj) {
				continue
			}
			gr, wr := g.Results[ti].Rows, w.Results[ti].Rows
			for ri := 0; ri < len(gr) && ri < len(wr); ri++ {
				if strings.Join(gr[ri], "|") != strings.Join(wr[ri], "|") {
					t.Errorf("%s row %d:\n got: %v\nwant: %v", g.Results[ti].ID, ri, gr[ri], wr[ri])
				}
			}
			t.Errorf("%s: table differs from %s (%d rows, want %d)", g.Results[ti].ID, path, len(gr), len(wr))
		}
	}
}
