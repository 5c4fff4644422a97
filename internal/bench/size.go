package bench

import "gimbal/internal/sim"

// Size is an experiment's scale, fixed when its Ctx is made.
type Size uint8

const (
	// Full is the paper's §5 scale: what gimbalbench runs.
	Full Size = iota
	// Test is the same rigs, seeds and structure with shorter windows,
	// smaller populations and lower rates: what go test pins.
	Test
)

// window is a run's warmup and measured window, in simulated ns.
type window struct{ warm, dur int64 }

// scale is every number an experiment sizes itself by.
type scale struct {
	eval  window // fig6, fig7, fig8, fig58 and the ablations
	micro window // the appendix characterizations
	cpu   window // the CPU-cost sweeps (fig3, fig16; Table 1 always runs Full)
	// chaosUnit is the chaos timeline quantum. Fault windows scale with
	// it; retry deadlines do not (they model initiator firmware, not
	// experiment geometry).
	chaosUnit int64
	tenants   tenantScaleSize
	volumes   volChurnSize
}

// tenantScaleSize is tenant-scale's population sweep.
type tenantScaleSize struct {
	pops     []int   // registered tenants, one row each
	churnPop int     // the churn row's population
	churnPS  float64 // replacements/s in the churn row
	window   window
	iops     float64 // offered load
	series   int     // obs per-name series budget (forces overflow at scale)
}

// volChurnSize is volume-churn's rig, churn rate and windows.
type volChurnSize struct {
	ssds       int
	capacity   int64   // per-SSD usable bytes
	targets    []int   // live-volume populations, one row each
	opsPS      float64 // control-plane operations/s
	iops       float64
	churnDur   int64  // the churn rows, measured whole (no warm-up)
	fairWindow window // the class-fairness table
}

// scale is the table: each row holds its Full value, then its Test value.
// It is built afresh per call, so no caller can change another's numbers.
func (s Size) scale() scale {
	const ms = sim.Millisecond
	return scale{
		eval:      pick(s, window{1 * sim.Second, 2 * sim.Second}, window{20 * ms, 50 * ms}),
		micro:     pick(s, window{500 * ms, 1 * sim.Second}, window{10 * ms, 30 * ms}),
		cpu:       pick(s, window{200 * ms, 400 * ms}, window{20 * ms, 40 * ms}),
		chaosUnit: pick(s, 100*ms, 20*ms),
		tenants: tenantScaleSize{
			pops:     pick(s, []int{100, 1_000, 10_000, 100_000}, []int{100, 5_000}),
			churnPop: pick(s, 100_000, 5_000),
			churnPS:  2000,
			window:   pick(s, window{200 * ms, 800 * ms}, window{20 * ms, 100 * ms}),
			iops:     pick(s, 40_000.0, 30_000),
			series:   pick(s, 8192, 1024),
		},
		volumes: volChurnSize{
			ssds:       pick(s, 4, 2),
			capacity:   pick(s, int64(4)<<30, 1<<30),
			targets:    pick(s, []int{500, 2500}, []int{300}),
			opsPS:      pick(s, 2000.0, 1000),
			iops:       pick(s, 25_000.0, 8000),
			churnDur:   pick(s, 1*sim.Second, 200*ms),
			fairWindow: pick(s, window{200 * ms, 600 * ms}, window{100 * ms, 300 * ms}),
		},
	}
}

// pick is one row of the table: full at Full, test at Test.
func pick[T any](s Size, full, test T) T {
	if s == Test {
		return test
	}
	return full
}
