// Command gimbalbench regenerates the paper's tables and figures.
//
// Usage:
//
//	gimbalbench -list
//	gimbalbench -exp fig6
//	gimbalbench -exp fig6,fig7 -format csv
//	gimbalbench -exp all -parallel 8
//
// Each experiment prints the rows/series the corresponding paper figure or
// table reports, with a note summarizing the shape the paper observed.
// EXPERIMENTS.md records the paper-vs-measured comparison.
//
// The chaos-* family (chaos-brownout, chaos-fabric, chaos-disconnect)
// exercises the fault-injection subsystem instead of a paper figure: a
// scripted SSD brownout, a lossy/delaying/duplicating fabric, and a tenant
// disconnect, each reporting how the schemes degrade and recover. Chaos
// runs are seed-deterministic like everything else.
//
// Experiments are independent simulations, so the sweep runs them on a
// worker pool (-parallel, default GOMAXPROCS). Every experiment owns its
// simulation loop, RNG seeds, and caches, so the output is byte-identical
// at any parallelism level; reports are always emitted in the requested
// order. -parallel 1 reproduces the serial sweep exactly.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"gimbal/internal/bench"
)

func main() {
	var (
		exp        = flag.String("exp", "", "experiment id(s), comma separated, or 'all'")
		format     = flag.String("format", "table", "output format: table, csv, or json")
		list       = flag.Bool("list", false, "list experiment ids")
		parallel   = flag.Int("parallel", runtime.GOMAXPROCS(0), "experiments to run concurrently")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile of the sweep to this file")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // flush the final allocation state before snapshotting
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	if *list || *exp == "" {
		fmt.Println("experiments:")
		for _, id := range bench.IDs() {
			e, _ := bench.Lookup(id)
			fmt.Printf("  %-16s %s\n", id, e.Title)
		}
		if *exp == "" && !*list {
			fmt.Println("\nrun with -exp <id> or -exp all")
		}
		return
	}

	var ids []string
	if *exp == "all" {
		ids = bench.IDs()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}

	failed := false
	start := time.Now()
	emit := func(rp *bench.Report) {
		switch *format {
		case "json":
			if err := rp.WriteJSON(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, err)
				failed = true
			}
		case "csv":
			for _, r := range rp.Results {
				r.WriteCSV(os.Stdout)
			}
		default:
			for _, r := range rp.Results {
				r.WriteTable(os.Stdout)
			}
		}
		fmt.Fprintf(os.Stderr, "[%s done, %.1fs into the sweep]\n", rp.Experiment, time.Since(start).Seconds())
	}
	if _, err := bench.RunAll(ids, bench.Full, *parallel, emit); err != nil {
		fmt.Fprintf(os.Stderr, "%v (try -list)\n", err)
		os.Exit(1)
	}
	if failed {
		os.Exit(1)
	}
}
