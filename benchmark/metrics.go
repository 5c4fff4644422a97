package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
)

// metricDef declares one end-to-end metric. The tables below are the single
// source of BENCHMARK.json (written by `-spec`, pinned by a test).
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the driver's: the contract allows one per metric, shared by
	// the four workloads, so it has to cover the metric's noisiest cell.
	Bound float64 `json:"bound"`
	// sim and live are the cell bounds: what -agree holds the metric to on a
	// sim-* workload and on live-null-mixed. Not part of BENCHMARK.json.
	sim, live float64
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is BENCHMARK.json's run_seconds: what the driver passes as
// -seconds, and what the batch counts are calibrated for.
const runSeconds = 20

var workloadDefs = []workloadDef{
	{"sim-null-4k", "paper Table 1 setting: 16 tenants x QD32 4KB over a NULL device, so sim, workload, fabric and core do all host work and ssd/tier none"},
	{"sim-frag-mixed", "fragmented 4 GiB NAND under 12 mixed read/write tenants: GC and every Gimbal control loop active; the one workload where the ssd model holds a large share of host time"},
	{"sim-tier-hot", "same NAND behind a 5% fast tier under Zipf-0.99 tenants: most reads end in tier and NAND sees destage spans, so tier and ssd gains separate"},
	{"live-null-mixed", "loopback TCP reactor plane over NULL devices: the only path through capsule codec, rings, slot pools and writev; ssd, tier and sim.Loop idle"},
}

// endToEnd lists what a user of the system sees, with two kinds of bound.
//
// Bound goes into BENCHMARK.json. The driver runs every run at another seed
// and refuses a metric whose spread (IQR over median of ten runs) on any
// workload exceeds it, so it is about three times the widest spread measured
// in any cell: the seed-to-seed spread of the simulated results (up to 4.7%,
// sim-frag-mixed's rd_p99_us) or the live plane's wall-clock noise.
//
// The cell bounds are ISSUE 12's, and are what -agree enforces on two result
// sets taken at the same seeds: 2% on simulated time (which repeats exactly
// for a seed, so any gap is a change of behaviour), 10% on host time, 8% on
// overhead_ratio (-agree allows the medians half the cell bound). The cells
// that set the driver's bound carry it: the live plane's wall-clock cells,
// and setup_s, which is allocation and table fills and which the box slows
// about twice as much as it slows the yardstick.
// README.md has the measured per-cell spreads behind every number here.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, 0.25, 0.25},
	{"host_ns_per_io", "ns", "lower", 0.15, 0.10, 0.15},
	{"cpu_ns_per_io", "ns", "lower", 0.15, 0.10, 0.15},
	{"overhead_ratio", "x", "lower", 0.10, 0.08, 0.10},
	{"rd_iops", "1/s", "higher", 0.15, 0.02, 0.15},
	{"agg_MBps", "MB/s", "higher", 0.15, 0.02, 0.15},
	{"qd1_rd_lat_us", "us", "lower", 0.25, 0.02, 0.25},
	{"rd_p99_us", "us", "lower", 0.25, 0.02, 0.25},
	{"wr_p99_us", "us", "lower", 0.25, 0.02, 0.25},
	{"futil_min", "ratio", "higher", 0.10, 0.02, 0.10},
}

// cellBound returns the bound -agree holds one workload x metric cell to.
func cellBound(workload, metric string) (float64, error) {
	for _, m := range endToEnd {
		if m.Name != metric {
			continue
		}
		if workload == liveName {
			return m.live, nil
		}
		return m.sim, nil
	}
	return 0, fmt.Errorf("no end-to-end metric %q", metric)
}

var perLayer = []layerDef{
	// Host self time per IO from the traced pass (sim-* workloads).
	{"sim.self_ns_per_io", "ns", "lower"},
	{"sim.events_per_io", "count", "lower"},
	{"workload.self_ns_per_io", "ns", "lower"},
	{"target.self_ns_per_io", "ns", "lower"},
	{"fabric.events_per_io", "count", "lower"},
	{"tier.self_ns_per_io", "ns", "lower"},
	{"fault.self_ns_per_io", "ns", "lower"},
	{"ssd.self_ns_per_io", "ns", "lower"},
	{"ssd.events_per_io", "count", "lower"},
	{"nulldev.self_ns_per_io", "ns", "lower"},
	{"trace.host_ns_per_io", "ns", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	// Ladder of direct rigs over NULL (sim-null-4k only).
	{"sim.ladder_ns_per_event", "ns", "lower"},
	{"nulldev.ladder_ns_per_io", "ns", "lower"},
	{"vanilla.ladder_ns_per_io", "ns", "lower"},
	{"core.ladder_ns_per_io", "ns", "lower"},
	{"fabric.ladder_ns_per_io", "ns", "lower"},
	{"workload.ladder_ns_per_io", "ns", "lower"},
	{"obs.registry_ns_per_io", "ns", "lower"},
	{"obs.sampled_tracer_ns_per_io", "ns", "lower"},
	{"core.ladder_qd1_ns_per_io", "ns", "lower"},
	// Gimbal control loops (registry and Switch accessors, simulated time).
	{"core.queue_delay_us_p99", "us", "lower"},
	{"core.vslot_wait_us_p99", "us", "lower"},
	{"core.pacing_stall_us_p99", "us", "lower"},
	{"core.pacing_stalls_per_kio", "count", "lower"},
	{"core.congestion_transitions", "count", "lower"},
	{"core.cost_changes", "count", "lower"},
	{"core.write_cost_end", "x", "lower"},
	{"core.target_rate_MBps_end", "MB/s", "higher"},
	// Simulated residency at the seams.
	{"target.sim_wait_us_p50", "us", "lower"},
	{"target.sim_wait_us_p99", "us", "lower"},
	{"target.sim_return_us_p50", "us", "lower"},
	{"dev.sim_us_p50", "us", "lower"},
	{"dev.sim_us_p99", "us", "lower"},
	{"qd1.idle_sim_us", "us", "lower"},
	// Fast tier.
	{"tier.hit_pct", "%", "higher"},
	{"tier.sim_hit_us_p99", "us", "lower"},
	{"tier.promotions", "count", "higher"},
	{"tier.evictions", "count", "lower"},
	{"tier.writeback_pct", "%", "higher"},
	{"tier.absorbed_pct", "%", "higher"},
	{"tier.destage_MB", "MB", "lower"},
	{"tier.dirty_pages_end", "count", "lower"},
	{"tier.conservation_gap_pages", "count", "lower"},
	// NAND model.
	{"ssd.write_amp", "x", "lower"},
	{"ssd.gc_moved_pages_per_kwrite", "count", "lower"},
	{"ssd.erases", "count", "lower"},
	{"ssd.free_blocks_end", "count", "higher"},
	{"ssd.sim_rd_us_p99", "us", "lower"},
	{"ssd.sim_wr_us_p99", "us", "lower"},
	// Set-up breakdown.
	{"ssd.precondition_s", "s", "lower"},
	{"ssd.snapshot_restore_ms", "ms", "lower"},
	{"bench.warmup_s", "s", "lower"},
	{"bench.calib_s", "s", "lower"},
	// Capsule codec, direct calls (live-null-mixed only).
	{"fabric.codec_cmd_encode_ns", "ns", "lower"},
	{"fabric.codec_cmd_decode_ns", "ns", "lower"},
	{"fabric.codec_rsp_encode_ns", "ns", "lower"},
	{"fabric.codec_rsp_decode_ns", "ns", "lower"},
	{"fabric.codec_cmd_decode_64k_ns", "ns", "lower"},
	// Live plane, client seams and public server counters.
	{"live.client_self_ns_per_io", "ns", "lower"},
	{"live.client_writes_per_io", "count", "lower"},
	{"live.client_reads_per_io", "count", "lower"},
	{"live.ctxsw_per_kio", "count", "lower"},
	{"live.rx_capsules", "count", "higher"},
	{"live.tx_capsules", "count", "higher"},
	{"live.inflight_max", "count", "lower"},
	{"live.rd_p50_us", "us", "lower"},
	{"live.rd_p99_us", "us", "lower"},
	{"live.qd1_p99_us", "us", "lower"},
	{"live.wr_p99_us", "us", "lower"},
	{"live.shutdown_ms", "ms", "lower"},
	{"live.slow_batch_pct", "%", "lower"},
	{"live.p2_rd_iops", "1/s", "higher"},
	{"live.p2_rd_p99_us", "us", "lower"},
	{"live.p2_cpu_ns_per_io", "ns", "lower"},
	{"live.p2_speedup", "x", "higher"},
	{"live.ol_p50_us", "us", "lower"},
	{"live.ol_p99_us", "us", "lower"},
	{"live.ol_late_us_p99", "us", "lower"},
	{"live.ol_achieved_iops", "1/s", "higher"},
	// Go runtime over the untraced reference pass.
	{"rt.allocs_per_io", "count", "lower"},
	{"rt.alloc_bytes_per_io", "B", "lower"},
	{"rt.gc_cycles", "count", "lower"},
	{"rt.gc_pause_ms", "ms", "lower"},
	{"rt.heap_sys_MB", "MB", "lower"},
	{"rt.batch_iqr_pct", "%", "lower"},
	{"rt.fast_batch_ns_per_io", "ns", "lower"},
	{"rt.yard_slowdown", "x", "lower"},
}

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []layerDef    `json:"per_layer"`
}

// layerDef is a per-layer metric as BENCHMARK.json spells it (no bound).
type layerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func currentSpec() benchSpec {
	return benchSpec{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}

func specJSON() []byte {
	b, err := json.MarshalIndent(currentSpec(), "", "  ")
	if err != nil {
		panic(err) // plain structs of strings and numbers
	}
	return append(b, '\n')
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validate checks a spec against the limits the driver states.
func (s benchSpec) validate() error {
	seen := map[string]bool{}
	name := func(kind, n string) error {
		if !nameRE.MatchString(n) {
			return fmt.Errorf("%s name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", kind, n)
		}
		if seen[n] {
			return fmt.Errorf("name %q used twice", n)
		}
		seen[n] = true
		return nil
	}
	metric := func(kind, n, unit, better string) error {
		if err := name(kind, n); err != nil {
			return err
		}
		if !unitRE.MatchString(unit) {
			return fmt.Errorf("%s %q: bad unit %q", kind, n, unit)
		}
		if better != "lower" && better != "higher" {
			return fmt.Errorf("%s %q: better is %q", kind, n, better)
		}
		return nil
	}
	if n := len(s.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range s.Workloads {
		if err := name("workload", w.Name); err != nil {
			return err
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			return fmt.Errorf("workload %q: why has %d characters", w.Name, len(w.Why))
		}
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		return fmt.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	setup := false
	for _, m := range s.EndToEnd {
		if err := metric("end-to-end metric", m.Name, m.Unit, m.Better); err != nil {
			return err
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			return fmt.Errorf("metric %q: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		return fmt.Errorf("no setup_s metric in s, lower is better")
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		return fmt.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for _, m := range s.PerLayer {
		if err := metric("per-layer metric", m.Name, m.Unit, m.Better); err != nil {
			return err
		}
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d outside 1..60", s.RunSeconds)
	}
	return nil
}

// loadSpec reads a BENCHMARK.json.
func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, s.validate()
}
