package bench

import (
	"fmt"

	"gimbal/internal/fabric"
	"gimbal/internal/sim"
	"gimbal/internal/ssd"
	"gimbal/internal/workload"
)

func init() {
	register("fig2", "Unloaded latency vs IO size: server vs SmartNIC JBOF", runFig2)
	register("fig3", "Throughput vs core count: server vs SmartNIC JBOF", runFig3)
	register("fig4", "Multi-tenant interference: victim vs neighbor profiles", runFig4)
	register("fig14", "4KB IOPS vs read ratio, clean and fragmented", runFig14)
	register("fig15", "Random read latency vs size under four scenarios", runFig15)
	register("fig16", "Bandwidth vs added per-IO processing cost", runFig16)
	register("fig19", "IO intensity interference (2:1 queue depths)", runFig19)
	register("fig20", "IO size interference (4KB stream vs growing neighbor)", runFig20)
	register("fig21", "IO pattern interference (read standalone vs mixed with writes)", runFig21)
	register("fig22", "4KB random read latency vs neighbor write size", runFig22)
	register("fig23", "4KB sequential write latency vs neighbor read size", runFig23)
}

var sweepSizes = []int{4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10}

// microWarm/microDur are variables (not constants) only so the golden test
// can shrink them; production runs never mutate them.
var (
	microWarm = 500 * sim.Millisecond
	microDur  = 1 * sim.Second
)

// microCfg is the appendix characterizations' run: streams on an unmanaged
// (vanilla) target at the micro windows.
func microCfg(cond ssd.Condition, specs []Spec) FioConfig {
	return FioConfig{Scheme: fabric.SchemeVanilla, Cond: cond, Specs: specs,
		Warm: microWarm, Dur: microDur, Seed: 3}
}

// cpuSweepCfg is microCfg for the CPU-cost sweeps, which are
// condition-independent: a fresh small device and short windows keep them
// cheap.
func cpuSweepCfg(cpu *fabric.CPUModel, specs []Spec) FioConfig {
	cfg := microCfg(ssd.Fresh, specs)
	cfg.Params = ssd.DCT983()
	cfg.Params.UsableBytes = 1 << 30
	cfg.CPU, cfg.Warm, cfg.Dur = cpu, 200*sim.Millisecond, 400*sim.Millisecond
	return cfg
}

// --- Fig 2 ---

func runFig2(cx *Ctx) []*Result {
	res := &Result{
		ID:     "fig2",
		Title:  "QD1 latency (us) by IO size, random read and sequential write",
		Header: []string{"size_KB", "srv_rd", "nic_rd", "srv_wr", "nic_wr"},
	}
	sizes := []int{4 << 10, 8 << 10, 16 << 10, 32 << 10, 128 << 10, 256 << 10}
	measure := func(cpu *fabric.CPUModel, p workload.Profile) float64 {
		cfg := microCfg(ssd.Clean, streams(p))
		cfg.CPU = cpu
		return opLat(cx.Execute(cfg).Workers[0]).Mean() / 1e3
	}
	for _, size := range sizes {
		rd := stream("rd", 1, size, 1)
		wr := sequential(stream("wr", 0, size, 1))
		res.AddRow(fmt.Sprint(size>>10),
			f0(measure(fabric.ServerCPU(2), rd)), f0(measure(fabric.SmartNICCPU(3), rd)),
			f0(measure(fabric.ServerCPU(2), wr)), f0(measure(fabric.SmartNICCPU(3), wr)))
	}
	res.Notef("paper shape: SmartNIC ~1%% slower for reads <=64KB, 20-23%% slower at 128/256KB; " +
		"writes add only ~2.7us on SmartNIC (buffered)")
	return []*Result{res}
}

// --- Fig 3 ---

func runFig3(cx *Ctx) []*Result {
	res := &Result{
		ID:     "fig3",
		Title:  "Max throughput (KIOPS) vs cores, 4 SSDs",
		Header: []string{"cores", "srv_rd", "nic_rd", "srv_wr", "nic_wr"},
	}
	measure := func(cpu *fabric.CPUModel, write bool) float64 {
		prof := stream("x", 1, 4096, 64)
		if write {
			prof = sequential(stream("x", 0, 4096, 64))
		}
		var specs []Spec
		for s := 0; s < 4; s++ {
			for w := 0; w < 4; w++ {
				specs = append(specs, Spec{Profile: prof, SSD: s})
			}
		}
		cfg := cpuSweepCfg(cpu, specs)
		cfg.NumSSD = 4
		var ops uint64
		for _, w := range cx.Execute(cfg).Workers {
			ops += w.ReadLat.Count() + w.WriteLat.Count()
		}
		return float64(ops) / (float64(cfg.Dur) / 1e9) / 1e3
	}
	for cores := 1; cores <= 8; cores++ {
		res.AddRow(fmt.Sprint(cores),
			f0(measure(fabric.ServerCPU(cores), false)), f0(measure(fabric.SmartNICCPU(cores), false)),
			f0(measure(fabric.ServerCPU(cores), true)), f0(measure(fabric.SmartNICCPU(cores), true)))
	}
	res.Notef("paper shape: server saturates storage (~1500 KIOPS) with 2 cores, SmartNIC needs 3")
	return []*Result{res}
}

// --- Fig 4 ---

func runFig4(cx *Ctx) []*Result {
	res := &Result{
		ID:     "fig4",
		Title:  "Victim (4KB-RD QD32) vs neighbor bandwidth, unmanaged target",
		Header: []string{"neighbor", "victim_MBps", "neighbor_MBps"},
	}
	neighbors := []struct {
		name string
		p    workload.Profile
	}{
		{"4KB-RD QD32", stream("n", 1, 4<<10, 32)},
		{"4KB-RD QD128", stream("n", 1, 4<<10, 128)},
		{"128KB-RD QD1", stream("n", 1, 128<<10, 1)},
		{"128KB-RD QD8", stream("n", 1, 128<<10, 8)},
		{"4KB-WR QD32", stream("n", 0, 4<<10, 32)},
		{"4KB-WR QD128", stream("n", 0, 4<<10, 128)},
	}
	victim := stream("v", 1, 4<<10, 32)
	for _, nb := range neighbors {
		run := cx.Execute(microCfg(ssd.Clean, streams(victim, nb.p)))
		res.AddRow(nb.name, f0(run.Workers[0].BandwidthMBps()), f0(run.Workers[1].BandwidthMBps()))
	}
	res.Notef("paper shape: higher-intensity neighbors always win (QD128 vs QD32 ~2x); " +
		"write neighbors cut victim bandwidth ~59%%")
	return []*Result{res}
}

// --- Fig 14 ---

func runFig14(cx *Ctx) []*Result {
	res := &Result{
		ID:     "fig14",
		Title:  "4KB QD32 bandwidth (MB/s) vs read ratio",
		Header: []string{"read_pct", "clean_rd", "clean_wr", "frag_rd", "frag_wr"},
	}
	ratios := []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 1}
	for _, ratio := range ratios {
		row := []string{f0(ratio * 100)}
		for _, cond := range []ssd.Condition{ssd.Clean, ssd.Fragmented} {
			run := cx.Execute(microCfg(cond, repeat(stream("m", ratio, 4096, 32), 4)))
			var rdB, wrB int64
			for _, w := range run.Workers {
				rdB += int64(w.ReadLat.Count()) * 4096
				wrB += int64(w.WriteLat.Count()) * 4096
			}
			sec := float64(microDur) / 1e9
			row = append(row, f0(float64(rdB)/1e6/sec), f0(float64(wrB)/1e6/sec))
		}
		res.AddRow(row...)
	}
	res.Notef("paper shape: fragmented write-only achieves ~17%% of clean; adding 5%% writes " +
		"to fragmented reads drops total IOPS ~43%%")
	return []*Result{res}
}

// --- Fig 15 ---

func runFig15(cx *Ctx) []*Result {
	res := &Result{
		ID:     "fig15",
		Title:  "Random read latency (us) vs size under four scenarios",
		Header: []string{"size_KB", "vanilla", "fragmented", "rw70_30", "qd8"},
	}
	for _, size := range sweepSizes {
		rd1 := stream("r", 1, size, 1)
		mix := stream("m", 0.7, size, 1)
		rd8 := stream("r8", 1, size, 8)
		lat := func(cond ssd.Condition, p workload.Profile) float64 {
			return cx.Execute(microCfg(cond, streams(p))).Workers[0].ReadLat.Mean() / 1e3
		}
		res.AddRow(fmt.Sprint(size>>10),
			f0(lat(ssd.Clean, rd1)), f0(lat(ssd.Fragmented, rd1)),
			f0(lat(ssd.Clean, mix)), f0(lat(ssd.Clean, rd8)))
	}
	res.Notef("paper shape: fragmentation +52%%, 70/30 mix +84%%, QD8 +81%% on average; " +
		"larger IOs degrade most")
	return []*Result{res}
}

// --- Fig 16 ---

func runFig16(cx *Ctx) []*Result {
	res := &Result{
		ID:     "fig16",
		Title:  "Bandwidth (GB/s) vs added per-IO processing cost (SmartNIC, 8 cores)",
		Header: []string{"added_us", "rd4K", "rd128K", "wr4K", "wr128K"},
	}
	costs := []int64{0, 1, 5, 10, 20, 40, 80, 160, 320}
	for _, c := range costs {
		row := []string{fmt.Sprint(c)}
		for _, p := range []workload.Profile{
			stream("r4", 1, 4<<10, 64),
			stream("r128", 1, 128<<10, 8),
			sequential(stream("w4", 0, 4<<10, 64)),
			sequential(stream("w128", 0, 128<<10, 8)),
		} {
			cpu := fabric.SmartNICCPU(8)
			cpu.ExtraPerIO = c * 1000
			run := cx.Execute(cpuSweepCfg(cpu, repeat(p, 8)))
			row = append(row, f2(run.AggBandwidth(nil)/1e3))
		}
		res.AddRow(row...)
	}
	res.Notef("paper shape: 4KB traffic tolerates ~1-5us added cost before losing bandwidth; " +
		"128KB tolerates ~5-10us")
	return []*Result{res}
}

// --- Fig 19 ---

func runFig19(cx *Ctx) []*Result {
	res := &Result{
		ID:     "fig19",
		Title:  "Two competing streams with 2:1 queue depths (MB/s)",
		Header: []string{"size_KB", "rd_s1(2x)", "rd_s2", "wr_s1(2x)", "wr_s2"},
	}
	for _, size := range sweepSizes {
		row := []string{fmt.Sprint(size >> 10)}
		for _, write := range []bool{false, true} {
			mk := func(qd int) workload.Profile {
				if write {
					return sequential(stream("s", 0, size, qd))
				}
				return stream("s", 1, size, qd)
			}
			run := cx.Execute(microCfg(ssd.Clean, streams(mk(64), mk(32))))
			row = append(row, f0(run.Workers[0].BandwidthMBps()), f0(run.Workers[1].BandwidthMBps()))
		}
		res.AddRow(row...)
	}
	res.Notef("paper shape: the deeper stream takes ~2x the bandwidth at every size")
	return []*Result{res}
}

// --- Fig 20 ---

func runFig20(cx *Ctx) []*Result {
	res := &Result{
		ID:     "fig20",
		Title:  "4KB stream1 bandwidth (MB/s) vs stream2 IO size (same type)",
		Header: []string{"s2_KB", "rnd_rd", "seq_rd", "rnd_wr", "seq_wr"},
	}
	for _, size := range sweepSizes {
		row := []string{fmt.Sprint(size >> 10)}
		for _, v := range []struct {
			readRatio float64
			seq       bool
		}{{1, false}, {1, true}, {0, false}, {0, true}} {
			mk := func(ioSize int) workload.Profile {
				p := stream("s", v.readRatio, ioSize, 32)
				p.Seq = v.seq
				return p
			}
			run := cx.Execute(microCfg(ssd.Clean, streams(mk(4096), mk(size))))
			row = append(row, f0(run.Workers[0].BandwidthMBps()))
		}
		res.AddRow(row...)
	}
	res.Notef("paper shape: larger neighbors squeeze the 4KB stream (e.g. 850 -> ~91 MB/s " +
		"against a 64KB random-read neighbor)")
	return []*Result{res}
}

// --- Fig 21 ---

func runFig21(cx *Ctx) []*Result {
	res := &Result{
		ID:     "fig21",
		Title:  "Read stream bandwidth: standalone vs mixed with same-size writes (MB/s)",
		Header: []string{"size_KB", "rnd_alone", "rnd_mixed", "seq_alone", "seq_mixed"},
	}
	for _, size := range sweepSizes {
		row := []string{fmt.Sprint(size >> 10)}
		for _, seq := range []bool{false, true} {
			rd, wr := stream("r", 1, size, 32), stream("w", 0, size, 32)
			rd.Seq, wr.Seq = seq, seq
			alone := cx.Execute(microCfg(ssd.Clean, streams(rd)))
			mixed := cx.Execute(microCfg(ssd.Clean, streams(rd, wr)))
			row = append(row, f0(alone.Workers[0].BandwidthMBps()), f0(mixed.Workers[0].BandwidthMBps()))
		}
		res.AddRow(row...)
	}
	res.Notef("paper shape: mixing with writes leaves reads ~27-39%% of standalone")
	return []*Result{res}
}

// --- Fig 22 / 23 ---

func latVsNeighbor(cx *Ctx, id, title string, s1 workload.Profile, neighborReadRatio float64) *Result {
	res := &Result{
		ID:     id,
		Title:  title,
		Header: []string{"s2_KB", "avg_rnd", "p999_rnd", "avg_seq", "p999_seq"},
	}
	sizes := append([]int{0}, sweepSizes...)
	for _, size := range sizes {
		row := []string{fmt.Sprint(size >> 10)}
		for _, seq := range []bool{false, true} {
			specs := streams(s1)
			if size > 0 {
				nb := stream("n", neighborReadRatio, size, 32)
				nb.Seq = seq
				specs = append(specs, Spec{Profile: nb})
			}
			h := opLat(cx.Execute(microCfg(ssd.Clean, specs)).Workers[0])
			row = append(row, f0(h.Mean()/1e3), us(h.P999()))
		}
		res.AddRow(row...)
	}
	return res
}

func runFig22(cx *Ctx) []*Result {
	r := latVsNeighbor(cx, "fig22", "4KB random read latency vs write-neighbor size (us)", stream("v", 1, 4096, 32), 0)
	r.Notef("paper shape: avg/p99.9 grow with neighbor size, flattening past 16KB when the " +
		"writer saturates its bandwidth")
	return []*Result{r}
}

func runFig23(cx *Ctx) []*Result {
	r := latVsNeighbor(cx, "fig23", "4KB sequential write latency vs read-neighbor size (us)", sequential(stream("v", 0, 4096, 32)), 1)
	r.Notef("paper shape: read neighbors inflate write tails via head-of-line blocking")
	return []*Result{r}
}
