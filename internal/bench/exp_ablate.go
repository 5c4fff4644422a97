package bench

import (
	"gimbal/internal/fabric"
	"gimbal/internal/ssd"
)

// variant is one row of an ablation: the fragmented mixed-type fairness
// scenario (frag-types: 16 readers + 16 writers, 4KB) under a modified
// Gimbal target and, for the credit ablation, a replaced client gate.
type variant struct {
	name   string
	mutate func(*fabric.TargetConfig)
	gate   func() fabric.Gater
}

// ablations is the design-ablation set. Every table's first row is the
// paper configuration — the same run, so the five baselines agree.
var ablations = []struct {
	id, listing, title, note string
	variants                 []variant
}{
	{"ablate-thresh", "Ablation: dynamic vs fixed latency thresholds",
		"Fragmented 4KB mixed workload under different threshold policies",
		"§3.2: a fixed 2ms threshold detects small-IO congestion late (higher tails); " +
			"a fixed 500us threshold sacrifices utilization",
		[]variant{
			{name: "dynamic (paper)"},
			{name: "fixed 2ms", mutate: func(tc *fabric.TargetConfig) {
				tc.Gimbal.Latency.ThreshMax = 2_000_000
				tc.Gimbal.Latency.AlphaT = 0 // threshold pinned at max
			}},
			{name: "fixed 500us", mutate: func(tc *fabric.TargetConfig) {
				tc.Gimbal.Latency.ThreshMax = 500_000
				tc.Gimbal.Latency.AlphaT = 0
			}},
		}},
	{"ablate-bucket", "Ablation: dual vs single token bucket",
		"Dual vs single token bucket (Appendix C.1)",
		"a single bucket submits writes at the aggregate rate, spiking write latency",
		[]variant{
			{name: "dual (paper)"},
			{name: "single bucket", mutate: func(tc *fabric.TargetConfig) {
				tc.Gimbal.Rate.SingleBucket = true
			}},
		}},
	{"ablate-writecost", "Ablation: dynamic vs static write cost",
		"Dynamic vs static write cost (§3.4)",
		"the static cost forfeits the write-buffer fast path: light writers are " +
			"over-throttled (see also fig9's first-writer behavior)",
		[]variant{
			{name: "dynamic (paper)"},
			{name: "static worst=9", mutate: func(tc *fabric.TargetConfig) {
				tc.Gimbal.DisableDynamicCost = true
			}},
		}},
	{"ablate-vslot", "Ablation: virtual slots vs unbounded slots",
		"Virtual slots vs unbounded per-tenant outstanding IO (§3.5)",
		"without the slot bound, pipelined small IOs inflate device queue occupancy " +
			"and the per-size fairness of fig7a degrades",
		[]variant{
			{name: "8 slots (paper)"},
			{name: "unbounded slots", mutate: func(tc *fabric.TargetConfig) {
				tc.Gimbal.Sched.Slots.MaxSlots = 1 << 20
				tc.Gimbal.Sched.Slots.SlotBytes = 1 << 40
			}},
		}},
	{"ablate-credit", "Ablation: credit flow control on vs off",
		"End-to-end credit flow control on vs off (§3.6)",
		"without credits the ingress queue absorbs the full client queue depth and " +
			"end-to-end tails inflate (the target-side device latency stays controlled)",
		[]variant{
			{name: "credits on (paper)"},
			// Same target, pass-through sessions.
			{name: "credits off", gate: fabric.NopGater},
		}},
}

func init() {
	for _, a := range ablations {
		register(a.id, a.listing, func(cx *Ctx) []*Result {
			res := &Result{ID: a.id, Title: a.title,
				Header: []string{"variant", "rd_fUtil", "wr_fUtil", "rd_p999_us", "wr_p999_us", "agg_MBps"}}
			for _, v := range a.variants {
				res.AddRow(v.row(cx)...)
			}
			res.Notef("%s", a.note)
			return []*Result{res}
		})
	}
}

// row runs the variant and reports utilization and tails.
func (v variant) row(cx *Ctx) []string {
	c := fairCases()[2]
	cfg := c.config(fabric.SchemeGimbal)
	cfg.GimbalCfg = v.mutate
	for i := range cfg.Specs {
		cfg.Specs[i].Gate = v.gate
	}
	run := cx.Execute(cfg)
	_, aF := groupBWAndFUtil(cx, run, c, "A", ssd.Params{})
	_, bF := groupBWAndFUtil(cx, run, c, "B", ssd.Params{})
	rd, wr := mergedHists(run)
	return []string{v.name, f2(aF), f2(bF), us(rd.P999()), us(wr.P999()), f0(run.AggBandwidth(nil))}
}
