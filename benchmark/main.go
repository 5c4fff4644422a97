// Command benchmark is the repository's performance ledger: four workloads,
// ten end-to-end metrics measured with tracing off, and a traced pass that
// prices every layer an IO crosses from outside, at the public seams. See
// README.md for the tables; BENCHMARK.json (written by -spec) is the
// contract the driver runs it under.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run (see -list)")
		seed         = flag.Uint64("seed", 1, "seed of every RNG: tenant offsets and opcodes, precondition passes, live offsets and arrival schedule")
		seconds      = flag.Int("seconds", runSeconds, "measured seconds the batch counts are scaled to")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass")
		list         = flag.Bool("list", false, "list the workloads")
		spec         = flag.Bool("spec", false, "print BENCHMARK.json")
		selfcheck    = flag.Bool("selfcheck", false, "check that simulated results repeat for a seed and change with it")
		agree        = flag.Bool("agree", false, "compare two result sets: -agree a.json b.json")
		sets         = flag.Int("sets", 0, "produce this many result sets (with -runs) as set-<k>.json under out/")
		runs         = flag.Int("runs", 5, "runs per workload in each set")
	)
	flag.Parse()
	// Fixed run conditions: default GOGC, and both CPUs of the reference box
	// for the simulator workloads (one runs the event loop, the GC may use
	// the other). The live workload runs on one P — see runLiveEndToEnd.
	runtime.GOMAXPROCS(2)

	switch {
	case *spec:
		os.Stdout.Write(specJSON())
	case *list:
		for _, w := range workloadDefs {
			fmt.Printf("%-16s %s\n", w.Name, w.Why)
		}
	case *selfcheck:
		exit(selfCheck(*seed))
	case *agree:
		if flag.NArg() != 2 {
			exit(fmt.Errorf("usage: -agree a.json b.json"))
		}
		exit(agreeFiles(flag.Arg(0), flag.Arg(1)))
	case *sets > 0:
		exit(produceSets(*sets, *runs, *seed, *seconds))
	default:
		exit(runOne(*workloadName, *seed, *seconds, *trace))
	}
}

func exit(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runWorkload dispatches one run.
func runWorkload(name string, seed uint64, seconds, trace int) (*result, error) {
	if seconds < 1 || seconds > 60 {
		return nil, fmt.Errorf("-seconds %d outside 1..60", seconds)
	}
	if def, ok := simDefs[name]; ok {
		if trace == 0 {
			return runSimEndToEnd(def, seed, seconds)
		}
		return runSimTraced(def, seed, seconds)
	}
	if name == liveName {
		if trace == 0 {
			return runLiveEndToEnd(seed, seconds)
		}
		return runLiveTraced(seed, seconds)
	}
	return nil, fmt.Errorf("unknown workload %q (try -list)", name)
}

// output is the last line of standard output, as the driver reads it.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs a workload and prints the header, one line per metric (name,
// value, unit), the failure account and the result line.
func runOne(name string, seed uint64, seconds, trace int) error {
	res, err := runWorkload(name, seed, seconds, trace)
	if err != nil {
		return err
	}
	var defs []layerDef // name and unit of what this run reports
	if trace == 0 {
		for _, d := range endToEnd {
			defs = append(defs, layerDef{d.Name, d.Unit, d.Better})
		}
	} else {
		defs = perLayer
	}
	fmt.Printf("# workload=%s seed=%d seconds=%d trace=%d\n", name, seed, seconds, trace)
	fmt.Printf("# nproc=%d GOMAXPROCS=%d go=%s kernel=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), kernelRelease(), commit())
	for _, n := range res.notes {
		fmt.Println("#", n)
	}
	out := output{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := res.metrics[d.Name]
		if !ok && trace == 0 {
			return fmt.Errorf("%s did not produce %s", name, d.Name)
		}
		// A per-layer metric of a layer the workload does not cross reads 0.
		fmt.Printf("%-34s %18.6f %s\n", d.Name, v, d.Unit)
		out.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	fmt.Printf("%-34s %18d count\n%-34s %18d count\n", "ops_attempted", res.attempted, "ops_failed", res.failed)
	line, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("result of %s: %w", name, err) // a NaN or Inf metric
	}
	fmt.Println(string(line))
	if !out.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", name, res.failed, res.attempted)
	}
	return nil
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// commit names the checkout when it is a git repository (the driver's is
// not).
func commit() string {
	b, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}
