package bench

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"sort"
	"testing"

	"gimbal/internal/fabric"
	"gimbal/internal/fault"
	"gimbal/internal/obs"
	"gimbal/internal/sim"
	"gimbal/internal/ssd"
	"gimbal/internal/workload"
)

var updateObsGolden = flag.Bool("update-obs-golden", false, "rewrite testdata/obs_golden.txt from this tree")

// obsGoldenRun is one seeded scenario of testdata/obs_golden.txt.
type obsGoldenRun struct {
	name string
	cfg  FioConfig
}

// obsGoldenRuns is the scenario set behind the golden: two fragmented SSDs
// and three tenants (a 4 KB reader and a 64 KB writer on SSD 0, a mixed
// tenant on SSD 1) under Gimbal and vanilla, plus a Gimbal run with
// recovery armed whose fault plan latches fail-fast, degrades, and tears
// one tenant down — so every counter the switch keeps is non-zero somewhere
// in the file.
func obsGoldenRuns() []obsGoldenRun {
	specs := []Spec{
		{Profile: workload.Profile{Name: "rd", ReadRatio: 1, IOSize: 4096, QD: 16}, SSD: 0},
		{Profile: workload.Profile{Name: "wr", ReadRatio: 0, IOSize: 64 << 10, QD: 4}, SSD: 0},
		{Profile: workload.Profile{Name: "mix", ReadRatio: 0.7, IOSize: 4096, QD: 8}, SSD: 1},
	}
	p := ssd.DCT983()
	p.UsableBytes = 512 << 20
	base := FioConfig{
		Cond: ssd.Fragmented, Params: p, NumSSD: 2, Specs: specs,
		Warm: 50 * sim.Millisecond, Dur: 200 * sim.Millisecond, Seed: 7,
	}
	var runs []obsGoldenRun
	for _, scheme := range []fabric.Scheme{fabric.SchemeGimbal, fabric.SchemeVanilla} {
		cfg := base
		cfg.Scheme = scheme
		if scheme == fabric.SchemeGimbal {
			// The tracer adds the exemplar lines to the exposition.
			cfg.Trace = &obs.TracerConfig{Capacity: 256, SampleEvery: 1}
		}
		runs = append(runs, obsGoldenRun{scheme.String(), cfg})
	}
	rec := base
	rec.Scheme = fabric.SchemeGimbal
	rec.GimbalCfg = chaosGimbalCfg
	retry := chaosRetry()
	rec.Retry = &retry
	ms := sim.Millisecond
	rec.Faults = &fault.Plan{Seed: 7, Events: []fault.Event{
		{Kind: fault.SSDFail, At: 60 * ms, Dur: 20 * ms, SSD: 0},
		{Kind: fault.SSDBrownout, At: 100 * ms, Dur: 80 * ms, SSD: 1, Factor: 200},
		{Kind: fault.FabricDisconnect, At: 150 * ms, Session: 1},
	}}
	return append(runs, obsGoldenRun{"gimbal+recovery", rec})
}

// TestObsGolden pins the registry's whole export — metric names, label
// order, family order, TYPE and HELP headers, exemplar lines and every
// value — for a seeded run of each stack shape: the Prometheus text
// followed by the sorted Snapshot. Telemetry plumbing may be rearranged
// freely as long as this file does not move.
func TestObsGolden(t *testing.T) {
	var got bytes.Buffer
	for _, run := range obsGoldenRuns() {
		r := NewCtx(Test).Execute(run.cfg)
		fmt.Fprintf(&got, "=== %s: /metrics\n", run.name)
		if err := r.Reg.WritePrometheus(&got); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "=== %s: snapshot\n", run.name)
		snap := r.Reg.Snapshot()
		keys := make([]string, 0, len(snap))
		for k := range snap {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&got, "%s %v\n", k, snap[k])
		}
	}
	const path = "testdata/obs_golden.txt"
	if *updateObsGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("%s line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: got %d lines, want %d", path, len(gl), len(wl))
	}
}
