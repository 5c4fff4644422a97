package bench

import (
	"fmt"

	"gimbal/internal/fabric"
)

func init() {
	register("tab1a", "Per-IO SmartNIC core time each scheme is charged (4KB read)", runTab1a)
	register("tab1b", "Max 4KB read IOPS on CPU-bound SmartNIC cores: Gimbal vs vanilla", runTab1b)
}

// cpuBoundKIOPS runs Table 1's 16 tenants × QD32 of 4 KB random reads on
// fig3's CPU-bound rig (four SSDs, four tenants each) with the scheme on the
// given SmartNIC cores, and returns the IOs completed inside the measured
// window per second, in thousands: completions the drain brings in after the
// window are left out, so a saturated core reads exactly its ceiling.
func cpuBoundKIOPS(cx *Ctx, scheme fabric.Scheme, cores int) float64 {
	specs := make([]Spec, 16)
	for i := range specs {
		specs[i] = Spec{Profile: stream("t", 1, 4096, 32), SSD: i % 4}
	}
	cfg := cx.cpuSweepCfg(fabric.SmartNICCPU(cores), specs)
	// Full windows at any size: TestTab1bMatchesPaper holds the ceiling
	// these runs read to one point.
	full := Full.scale().cpu
	cfg.Scheme, cfg.NumSSD, cfg.Warm, cfg.Dur = scheme, 4, full.warm, full.dur
	var ops uint64
	cfg.Events = []TimedEvent{{At: cfg.Warm + cfg.Dur, Do: func(r *FioRun) {
		for _, w := range r.Workers {
			ops += w.ReadLat.Count()
		}
	}}}
	cx.Execute(cfg)
	return float64(ops) / (float64(cfg.Dur) / 1e9) / 1e3
}

func runTab1a(cx *Ctx) []*Result {
	res := &Result{
		ID:     "tab1a",
		Title:  "SmartNIC core time per 4KB read (ns): charged per event, and paid at 16 x QD32 on one core",
		Header: []string{"scheme", "submit_ns", "complete_ns", "vs_vanilla", "paper", "io_ns", "run_ns"},
	}
	paper := map[fabric.Scheme]string{
		fabric.SchemeVanilla: "baseline",
		fabric.SchemeGimbal:  "+42.9%/+47.1%",
		fabric.SchemeReflex:  "not reported",
		fabric.SchemeFlashFQ: "not reported",
		fabric.SchemeParda:   "vanilla target",
	}
	cpu := fabric.SmartNICCPU(1)
	vs, vc := cpu.SchemeCosts(fabric.SchemeVanilla)
	data := 2 * (4096 * cpu.BytePs / 1000)
	for _, s := range append([]fabric.Scheme{fabric.SchemeVanilla}, fabric.AllSchemes...) {
		sub, cpl := cpu.SchemeCosts(s)
		dsub, dcpl := float64(sub-vs)/float64(vs)*100, float64(cpl-vc)/float64(vc)*100
		res.AddRow(s.String(), fmt.Sprint(sub), fmt.Sprint(cpl), fmt.Sprintf("%+.1f%%/%+.1f%%", dsub, dcpl),
			paper[s], fmt.Sprint(sub+cpl+data), f0(1e6/cpuBoundKIOPS(cx, s, 1)))
	}
	res.Notef("submit/complete are the path costs (vanilla's scaled by the scheme's Table 1a multiplier, "+
		"fabric.schemeCost); io_ns adds the %d ns data path of both events; run_ns is 1e9 / IOPS on one saturated core", data)
	res.Notef("paper (ARM A72 cycles): +42.9%%/+47.1%% submit/complete at 16xQD32, the pair the model charges; " +
		"+62.5%%/+37.5%% at QD1, where a core idles between IOs")
	res.Notef("this implementation's own host time per IO, Gimbal vs vanilla: the perf ledger's sim-null-4k " +
		"overhead_ratio (bash benchmark/run.sh -workload sim-null-4k)")
	return []*Result{res}
}

func runTab1b(cx *Ctx) []*Result {
	res := &Result{
		ID:     "tab1b",
		Title:  "Max KIOPS, 16 x QD32 4KB reads on CPU-bound SmartNIC cores",
		Header: []string{"cores", "vanilla", "gimbal", "delta"},
	}
	for _, cores := range []int{1, 4} {
		v := cpuBoundKIOPS(cx, fabric.SchemeVanilla, cores)
		g := cpuBoundKIOPS(cx, fabric.SchemeGimbal, cores)
		res.AddRow(fmt.Sprint(cores), f1(v), f1(g), fmt.Sprintf("%+.1f%%", (g/v-1)*100))
	}
	res.Notef("paper: vanilla 937 vs Gimbal 821 KIOPS on one ARM A72 core (-12.4%%); " +
		"TestTab1bMatchesPaper holds the delta to -12.4%% +/- 1 point at both core counts")
	return []*Result{res}
}
