package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"strings"
	"testing"
)

var updateSweepGolden = flag.Bool("update-sweep-golden", false, "rewrite testdata/sweep_golden.json from this tree")

// sweepGoldenIDs is every experiment TestSweepGolden runs at Test size:
// each one with a Test row in the size table, plus those that are cheap at
// Full and read no row (fig18's 3-simulated-second trace, tab1a/tab1b's
// Full CPU windows).
var sweepGoldenIDs = []string{
	"fig6", "fig7", "fig8", "fig58", "fig18",
	"ablate-thresh", "ablate-bucket", "ablate-writecost", "ablate-vslot", "ablate-credit",
	"chaos-brownout", "chaos-fabric", "chaos-disconnect", "slo-attrib",
	"volume-churn",
	"fig4", "fig15", "fig19", "fig21", "fig22",
	"fig3", "fig16", "tab1a", "tab1b",
	"tenant-scale", "fig2", "fig14", "fig20", "fig23",
}

// fullSizeOnly is every experiment TestSweepGolden leaves out, with why.
// These are diffed full-size between parent and change when the harness
// moves. Run times are full-size, -parallel 1, on a 2-core x86-64 box.
var fullSizeOnly = map[string]string{
	"fig9":  "no Test row (a fixed 90-simulated-second timeline); 10 s",
	"fig17": "no Test row (a fixed 20-simulated-second run); 11 s",
	"fig10": "no Test row (the YCSB rack); 7 min",
	"fig11": "no Test row (the YCSB rack); 8 min",
	"fig12": "no Test row (the YCSB rack); 8 min",
	"fig13": "no Test row (the YCSB rack); 56 s",
}

// TestEveryExperimentPinnedOrNamed: a registered experiment is either
// pinned by TestSweepGolden or named in fullSizeOnly with its reason, never
// both and never neither.
func TestEveryExperimentPinnedOrNamed(t *testing.T) {
	pinned := map[string]bool{}
	for _, id := range sweepGoldenIDs {
		pinned[id] = true
	}
	for _, id := range IDs() {
		_, named := fullSizeOnly[id]
		switch {
		case pinned[id] && named:
			t.Errorf("%s is both pinned and named full-size-only", id)
		case !pinned[id] && !named:
			t.Errorf("%s is neither pinned by TestSweepGolden nor named in fullSizeOnly", id)
		}
	}
	for id := range fullSizeOnly {
		if _, ok := Lookup(id); !ok {
			t.Errorf("fullSizeOnly names %s, which is not registered", id)
		}
	}
}

// sweepGoldenEntry is one experiment's tables in testdata/sweep_golden.json.
type sweepGoldenEntry struct {
	Experiment string    `json:"experiment"`
	Results    []*Result `json:"results"`
}

// TestSweepGolden pins the printed rows of every experiment in
// sweepGoldenIDs at Test size: the harness may be rearranged freely as long
// as no cell of this file moves.
func TestSweepGolden(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("runs twenty-nine experiments; skipped in -short and under -race")
	}
	reports, err := RunAll(sweepGoldenIDs, Test, 2, nil)
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
