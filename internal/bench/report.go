// Package bench is the experiment harness: one runner per table and figure
// of the paper's evaluation (plus the appendix characterizations and the
// design ablations), producing the same rows and series the paper reports.
// cmd/gimbalbench is the CLI front end.
//
// There is one rig and one run loop, both in harness.go. NewFioRun builds
// the rig — loop, fabric.BuildStack, target, registry, one worker per Spec
// — and Ctx.Run drives it: start, arm events and the sampler, warm, reset,
// measure, drain, record the observability block. Ctx.Execute is the two
// composed, and what run-wide checks attach to. A new experiment is a
// FioConfig (the data) and a function from the finished FioRun to rows,
// registered in an exp_*.go file; one whose load is not worker streams
// (tenant-scale, volume-churn) still builds its stack with NewFioRun, with
// zero Specs, and drives FioRun.Loop itself. CI rejects an exp_*.go that
// calls RunUntil or BuildStack on its own; RunYCSB's rack (a blobstore and
// DB per instance over several JBOFs) is the one other assembly.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Result is one experiment's output: a titled table plus optional notes
// comparing against the paper's reported numbers.
type Result struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
}

// AddRow appends a formatted row.
func (r *Result) AddRow(cells ...string) { r.Rows = append(r.Rows, cells) }

// Notef appends a formatted note.
func (r *Result) Notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// WriteTable renders the result as an aligned text table.
func (r *Result) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(r.Header)
	sep := make([]string, len(r.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// WriteCSV renders the result as CSV.
func (r *Result) WriteCSV(w io.Writer) {
	fmt.Fprintf(w, "# %s: %s\n", r.ID, r.Title)
	fmt.Fprintln(w, strings.Join(r.Header, ","))
	for _, row := range r.Rows {
		fmt.Fprintln(w, strings.Join(row, ","))
	}
}

// Report is one experiment's JSON document: its result tables plus the
// observability blocks of every harness execution the experiment ran.
// WallSeconds is the host wall-clock time of the run; it is the one field
// that varies between repetitions, so byte-identity comparisons of reports
// must zero it first.
type Report struct {
	Experiment    string    `json:"experiment"`
	Title         string    `json:"title"`
	WallSeconds   float64   `json:"wall_seconds"`
	Results       []*Result `json:"results"`
	Observability []ObsRun  `json:"observability,omitempty"`
}

// WriteJSON renders the report as indented JSON.
func (rp *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rp)
}

// Experiment is a registered runner. Run receives a fresh context per
// invocation and must keep all mutable state there, so experiments can run
// on concurrent goroutines.
type Experiment struct {
	ID    string
	Title string
	Run   func(c *Ctx) []*Result
}

var registry = map[string]*Experiment{}

func register(id, title string, run func(c *Ctx) []*Result) {
	if _, dup := registry[id]; dup {
		panic("bench: duplicate experiment " + id)
	}
	registry[id] = &Experiment{ID: id, Title: title, Run: run}
}

// Lookup finds an experiment by id.
func Lookup(id string) (*Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// IDs returns all experiment ids, sorted.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// RunReport executes one experiment in a fresh context and packages its
// results, observability blocks, and wall time as a Report.
func RunReport(e *Experiment) *Report {
	c := NewCtx()
	start := time.Now()
	results := e.Run(c)
	return &Report{
		Experiment:    e.ID,
		Title:         e.Title,
		WallSeconds:   time.Since(start).Seconds(),
		Results:       results,
		Observability: c.DrainObsRuns(),
	}
}

// RunAll executes the named experiments over a pool of parallel workers
// and returns their reports in input order. Each experiment runs in its
// own context (own simulations, own RNG seeds, own caches), so every
// report is bit-identical — apart from WallSeconds — at any parallelism
// level, including parallel == 1, which reproduces the serial sweep
// exactly. emit, if non-nil, is invoked in input order as soon as a report
// and all of its predecessors have completed, allowing streamed output.
func RunAll(ids []string, parallel int, emit func(*Report)) ([]*Report, error) {
	exps := make([]*Experiment, len(ids))
	for i, id := range ids {
		e, ok := Lookup(id)
		if !ok {
			return nil, fmt.Errorf("bench: unknown experiment %q", id)
		}
		exps[i] = e
	}
	if parallel < 1 {
		parallel = 1
	}
	if parallel > len(exps) {
		parallel = len(exps)
	}

	reports := make([]*Report, len(exps))
	work := make(chan int)
	ready := make(chan int, len(exps))
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				reports[i] = RunReport(exps[i])
				ready <- i
			}
		}()
	}
	go func() {
		for i := range exps {
			work <- i
		}
		close(work)
		wg.Wait()
		close(ready)
	}()

	// Emit in input order as prefixes complete (the ready channel's
	// receive orders each reports[i] write before its read here).
	done := make([]bool, len(exps))
	next := 0
	for i := range ready {
		done[i] = true
		for next < len(exps) && done[next] {
			if emit != nil {
				emit(reports[next])
			}
			next++
		}
	}
	return reports, nil
}

// f1 formats a float with one decimal.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

// f2 formats a float with two decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// f0 formats a float with no decimals.
func f0(v float64) string { return fmt.Sprintf("%.0f", v) }

// us renders nanoseconds as microseconds.
func us(ns int64) string { return fmt.Sprintf("%.0f", float64(ns)/1e3) }
