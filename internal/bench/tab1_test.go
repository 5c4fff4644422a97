package bench

import (
	"math"
	"testing"

	"gimbal/internal/fabric"
)

// TestTab1bMatchesPaper is paper Table 1b as a coded claim: on one and on
// four saturated SmartNIC cores Gimbal's max IOPS is −12.4% of vanilla's,
// within one percentage point. The model gets there only through Table 1a's
// cycle multipliers (fabric.schemeCost) scaling the path costs, while the
// data path stays the same for both schemes, so the delta is a prediction,
// not a fit. Vanilla must read the core's ceiling, 1e9 ÷ its per-IO charge
// per core, within 1%: the rig measures the CPU, not the NAND.
func TestTab1bMatchesPaper(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("runs tab1b's four CPU-bound runs; skipped in -short and under -race")
	}
	const paper, tol = -0.124, 0.01
	for _, cores := range []int{1, 4} {
		cx := NewCtx(Full)
		v := cpuBoundKIOPS(cx, fabric.SchemeVanilla, cores)
		g := cpuBoundKIOPS(cx, fabric.SchemeGimbal, cores)
		if d := g/v - 1; math.Abs(d-paper) > tol {
			t.Errorf("%d cores: gimbal %.1f vs vanilla %.1f KIOPS is %+.1f%%, want %+.1f%% ± %.0f points",
				cores, g, v, d*100, paper*100, tol*100)
		}
		cpu := fabric.SmartNICCPU(cores)
		perIO := cpu.SubmitCost + cpu.CompleteCost + 2*(4096*cpu.BytePs/1000)
		ceiling := float64(cores) * 1e9 / float64(perIO) / 1e3
		if math.Abs(v/ceiling-1) > 0.01 {
			t.Errorf("%d cores: vanilla %.1f KIOPS, want the CPU ceiling %.1f ± 1%%", cores, v, ceiling)
		}
	}
}
