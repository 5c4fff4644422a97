package bench

import (
	"strings"
	"testing"
)

// TestAblationBaselinesAgree asserts the five ablation tables share one
// baseline: each table's first row is the paper configuration of the same
// scenario, so past the variant label the rows must be cell-for-cell equal.
func TestAblationBaselinesAgree(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("runs the ablation sweep; skipped in -short and under -race")
	}
	shrinkEvalWindows(t)
	reports, err := RunAll([]string{"ablate-thresh", "ablate-bucket", "ablate-writecost",
		"ablate-vslot", "ablate-credit"}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Join(reports[0].Results[0].Rows[0][1:], " / ")
	for _, rp := range reports[1:] {
		row := rp.Results[0].Rows[0]
		if got := strings.Join(row[1:], " / "); got != want {
			t.Errorf("%s baseline %q reads %s, %s reads %s",
				rp.Experiment, row[0], got, reports[0].Experiment, want)
		}
	}
}
