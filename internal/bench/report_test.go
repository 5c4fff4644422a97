package bench

import (
	"strconv"
	"strings"
	"testing"

	"gimbal/internal/ssd"
)

// cell is the named column of one row of res.
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

// cellF parses one numeric table cell.
func cellF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("non-numeric cell %q: %v", s, err)
	}
	return v
}

// cellInt is cell parsed as an integer.
func cellInt(t *testing.T, res *Result, row []string, name string) int {
	t.Helper()
	v, err := strconv.Atoi(cell(t, res, row, name))
	if err != nil {
		t.Fatalf("non-numeric %s cell in %v", name, row)
	}
	return v
}

func TestResultTableRendering(t *testing.T) {
	r := &Result{
		ID:     "figX",
		Title:  "demo",
		Header: []string{"col", "value"},
	}
	r.AddRow("a", "1")
	r.AddRow("longer-name", "22")
	r.Notef("a note with %d parts", 2)
	var sb strings.Builder
	r.WriteTable(&sb)
	out := sb.String()
	for _, want := range []string{"figX", "demo", "col", "longer-name", "note: a note with 2 parts"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestResultCSVRendering(t *testing.T) {
	r := &Result{ID: "figY", Title: "demo", Header: []string{"a", "b"}}
	r.AddRow("1", "2")
	var sb strings.Builder
	r.WriteCSV(&sb)
	out := sb.String()
	if !strings.Contains(out, "a,b\n1,2\n") {
		t.Fatalf("csv output wrong:\n%s", out)
	}
}

func TestRegistryCoversEveryPaperArtifact(t *testing.T) {
	// Every table and figure of the evaluation (plus appendix) must have a
	// registered experiment (Table 2 is qualitative, documented in
	// EXPERIMENTS.md; Table 1 splits into tab1a/tab1b).
	want := []string{
		"fig2", "fig3", "fig4", "fig6", "fig7", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig13",
		"fig14", "fig15", "fig16", "fig17", "fig18",
		"fig19", "fig20", "fig21", "fig22", "fig23",
		"fig58", "tab1a", "tab1b",
		"ablate-thresh", "ablate-bucket", "ablate-writecost",
		"ablate-vslot", "ablate-credit",
	}
	for _, id := range want {
		if _, ok := Lookup(id); !ok {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if len(IDs()) < len(want) {
		t.Errorf("registry has %d experiments, want >= %d", len(IDs()), len(want))
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, ok := Lookup("nope"); ok {
		t.Fatal("unknown id resolved")
	}
}

func TestFormatHelpers(t *testing.T) {
	if f0(1.6) != "2" || f1(1.25) != "1.2" || f2(1.259) != "1.26" {
		t.Fatalf("float formatting wrong: %s %s %s", f0(1.6), f1(1.25), f2(1.259))
	}
	if us(1500) != "2" || us(1_000_000) != "1000" {
		t.Fatalf("us formatting wrong: %s %s", us(1500), us(1_000_000))
	}
}

func TestStandaloneMaxMemoized(t *testing.T) {
	// Second call with identical parameters must hit the cache (pure map
	// lookup — this test would take seconds otherwise). Use a small device
	// to keep the first (measured) call quick.
	params := ssd.DCT983()
	params.UsableBytes = 512 << 20
	params.Name = "memo-test"
	p := read4K()
	cx := NewCtx(Test)
	v1 := cx.StandaloneMax(p, ssd.Clean, params)
	v2 := cx.StandaloneMax(p, ssd.Clean, params)
	if v1 != v2 {
		t.Fatalf("memoized values differ: %v vs %v", v1, v2)
	}
	if v1 <= 0 {
		t.Fatalf("standalone max = %v", v1)
	}
}
