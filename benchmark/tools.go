package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"reflect"
	"sort"
	"strconv"
)

// simFingerprint runs a shortened traced schedule of a simulator workload
// and returns everything that must repeat exactly for a seed: the
// simulated-time metrics and the exact counts.
func simFingerprint(def *simDef, seed uint64, traced bool) (map[string]float64, error) {
	var tr *simTrace
	if traced {
		tr = newSimTrace()
	}
	run, err := runLoaded(def, seed, 3, tr, true, nil)
	if err != nil {
		return nil, err
	}
	p := run.phase
	fp := map[string]float64{
		"rd_iops": p.rdIOPS, "agg_MBps": p.aggMBps, "qd1_rd_lat_us": p.qd1Us,
		"rd_p99_us": p.rdP99Us, "wr_p99_us": p.wrP99Us, "futil_min": p.futilMin,
		"ios": float64(run.gb.ios),
	}
	controlLoopMetrics(run.g.hub.Reg.Snapshot(), run.g.target.Pipeline(0).Gimbal, fp)
	deviceCounters(run.g, fp)
	if traced {
		for l, s := range run.g.scheds {
			if s != nil {
				fp[layer(l).String()+".events"] = float64(s.events)
			}
		}
	}
	res := newResult()
	if err := run.finish(res); err != nil {
		return nil, err
	}
	if res.failed != 0 {
		return nil, fmt.Errorf("%s: %d operations failed", def.name, res.failed)
	}
	return fp, nil
}

// selfCheck is -selfcheck: every simulated-time metric and exact count of
// each sim-* workload must be bit-identical across two runs at one seed,
// must not depend on whether the traced wrappers are in place, and must
// change with the seed (so the seed is really wired through).
func selfCheck(seed uint64) error {
	names := make([]string, 0, len(simDefs))
	for n := range simDefs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		def := simDefs[name]
		a, err := simFingerprint(def, seed, true)
		if err != nil {
			return err
		}
		b, err := simFingerprint(def, seed, true)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(a, b) {
			return fmt.Errorf("%s: two runs at seed %d differ:\n%v\n%v", name, seed, a, b)
		}
		plain, err := simFingerprint(def, seed, false)
		if err != nil {
			return err
		}
		for k, v := range plain {
			if a[k] != v {
				return fmt.Errorf("%s: %s is %v untraced and %v traced: the wrappers changed the simulation", name, k, v, a[k])
			}
		}
		c, err := simFingerprint(def, seed+1, true)
		if err != nil {
			return err
		}
		same := 0
		for _, k := range []string{"rd_iops", "agg_MBps", "qd1_rd_lat_us", "rd_p99_us", "wr_p99_us", "futil_min"} {
			if a[k] == c[k] {
				same++
				fmt.Printf("%-16s %-14s identical at seeds %d and %d: %v\n", name, k, seed, seed+1, a[k])
			}
		}
		if same > 0 {
			return fmt.Errorf("%s: %d simulated metrics ignore the seed", name, same)
		}
		fmt.Printf("%-16s ok: %d values repeat at seed %d, tracing leaves them alone, seed %d moves every simulated metric\n",
			name, len(a), seed, seed+1)
	}
	return nil
}

// runRecord is one run inside a result set.
type runRecord struct {
	Workload string                 `json:"workload"`
	Seed     uint64                 `json:"seed"`
	Metrics  map[string]metricValue `json:"metrics"`
}

type resultSet struct {
	Runs []runRecord `json:"runs"`
}

// produceSets is -sets K -runs N: K result sets of N end-to-end runs per
// workload, as out/set-<k>.json. Each run is its own process, as the
// driver's are; run i of every set uses seed+i; the workload order
// alternates between runs.
func produceSets(k, n int, seed uint64, seconds int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	for set := 1; set <= k; set++ {
		var rs resultSet
		for run := 0; run < n; run++ {
			order := append([]workloadDef(nil), workloadDefs...)
			if run%2 == 1 {
				for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
					order[i], order[j] = order[j], order[i]
				}
			}
			for _, w := range order {
				s := seed + uint64(run)
				cmd := exec.Command(exe, "-workload", w.Name, "-seed", strconv.FormatUint(s, 10),
					"-seconds", strconv.Itoa(seconds), "-trace", "0")
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				if err != nil {
					return fmt.Errorf("set %d, %s seed %d: %w", set, w.Name, s, err)
				}
				lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
				var o output
				if err := json.Unmarshal(lines[len(lines)-1], &o); err != nil {
					return fmt.Errorf("set %d, %s seed %d: result line: %w", set, w.Name, s, err)
				}
				if !o.Correct {
					return fmt.Errorf("set %d, %s seed %d: incorrect run", set, w.Name, s)
				}
				rs.Runs = append(rs.Runs, runRecord{w.Name, s, o.Metrics})
				fmt.Printf("set %d run %d %-16s seed %d done\n", set, run+1, w.Name, s)
			}
		}
		path, err := writeOut(fmt.Sprintf("set-%d.json", set), rs)
		if err != nil {
			return err
		}
		fmt.Println("wrote", path)
	}
	return nil
}

func readSet(path string) (map[string]map[string][]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs resultSet
	if err := json.Unmarshal(b, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]map[string][]float64{}
	for _, r := range rs.Runs {
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v.Value)
		}
	}
	return out, nil
}

// agreement is the verdict on one workload x metric cell of two sets.
type agreement struct {
	aQ, bQ           [3]float64
	aSpread, bSpread float64 // IQR / median
	gap              float64 // share of a's median by which b's differs; positive is worse
	ok               bool
}

// agree judges two samples of one metric taken from one build. The medians
// must lie within half the cell's bound of each other, in either direction:
// the same code reading 40% better the second time is as much a broken
// measurement as 40% worse. And, as the driver requires, each spread (IQR
// over median) must stay within the metric's BENCHMARK.json bound; setup_s is
// exempt from that rule there and here.
func agree(a, b []float64, m metricDef, cell float64) agreement {
	g := agreement{aQ: quartiles(a), bQ: quartiles(b)}
	g.aSpread, g.bSpread = iqrPct(a)/100, iqrPct(b)/100
	if g.aQ[1] != 0 {
		g.gap = (g.bQ[1] - g.aQ[1]) / math.Abs(g.aQ[1])
		if m.Better == "higher" {
			g.gap = -g.gap
		}
	}
	g.ok = math.Abs(g.gap) <= cell/2
	if m.Name != "setup_s" {
		g.ok = g.ok && g.aSpread <= m.Bound && g.bSpread <= m.Bound
	}
	return g
}

// agreeFiles is -agree a.json b.json: per workload x end-to-end metric,
// both medians and quartiles, the spreads, the gap and the verdict. The
// metric's bound and names come from BENCHMARK.json; the cell's bound, which
// a simulated-time cell holds far tighter, from the tables in metrics.go. It
// fails if any cell fails.
func agreeFiles(pathA, pathB string) error {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		return err
	}
	a, err := readSet(pathA)
	if err != nil {
		return err
	}
	b, err := readSet(pathB)
	if err != nil {
		return err
	}
	failed := 0
	fmt.Printf("%-16s %-15s %5s %5s | %12s %12s %12s %6s | %12s %12s %12s %6s | %7s %s\n",
		"workload", "metric", "bound", "cell", "a.q1", "a.median", "a.q3", "iqr%", "b.q1", "b.median", "b.q3", "iqr%", "gap%", "verdict")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			xa, xb := a[w.Name][m.Name], b[w.Name][m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				return fmt.Errorf("%s/%s: missing from a result set", w.Name, m.Name)
			}
			cell, err := cellBound(w.Name, m.Name)
			if err != nil {
				return err
			}
			g := agree(xa, xb, m, cell)
			verdict := "ok"
			if !g.ok {
				verdict = "FAIL"
				failed++
			}
			fmt.Printf("%-16s %-15s %4.0f%% %4.0f%% | %12.5g %12.5g %12.5g %6.2f | %12.5g %12.5g %12.5g %6.2f | %+7.2f %s\n",
				w.Name, m.Name, m.Bound*100, cell*100, g.aQ[0], g.aQ[1], g.aQ[2], g.aSpread*100,
				g.bQ[0], g.bQ[1], g.bQ[2], g.bSpread*100, g.gap*100, verdict)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d cells disagree (medians over half the cell bound apart, or a spread over the metric's bound)",
			failed, len(spec.Workloads)*len(spec.EndToEnd))
	}
	return nil
}
