package bench

import (
	"testing"

	"gimbal/internal/fabric"
)

// TestChaosBrownoutIsolation is the acceptance-criteria assertion for the
// chaos evaluation: under the scripted single-SSD brownout, Gimbal keeps
// the healthy-SSD tenants at ≥90% of their pre-fault bandwidth while the
// vanilla target does not. It runs at Full size: retention under a storm is
// a steady-state property, which the Test chaos unit is too short for.
func TestChaosBrownoutIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full brownout timeline twice; skipped in -short")
	}
	cx := NewCtx(Full)
	g := runChaosBrownout(cx, fabric.SchemeGimbal)
	v := runChaosBrownout(cx, fabric.SchemeVanilla)

	if v.Timeouts == 0 {
		t.Fatalf("vanilla rode out the brownout without a single deadline miss; the fault is not biting")
	}
	if v.Retention >= 0.9 {
		t.Errorf("vanilla healthy retention = %.1f%%, want < 90%% (no isolation without Gimbal)",
			v.Retention*100)
	}
	if g.Retention < 0.9 {
		t.Errorf("gimbal healthy retention = %.1f%%, want ≥ 90%% (pre %.0f MB/s, fault %.0f MB/s)",
			g.Retention*100, g.PreMBps, g.FaultMBps)
	}
	if !g.DegradeEnter {
		t.Errorf("gimbal switch never entered graceful degradation during the brownout")
	}
	if g.RecoverMs < 0 {
		t.Errorf("gimbal healthy tenants never regained 95%% of pre-fault bandwidth after the window")
	}
}

// TestChaosDisconnectReclaim asserts the chaos-disconnect experiment
// reports a full credit reclaim: the dead tenant's advertised credit drops
// to zero and the survivors do not lose bandwidth.
func TestChaosDisconnectReclaim(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full disconnect timeline; skipped in -short")
	}
	cx := NewCtx(Test)
	res := runChaosDisconnectExp(cx)
	if len(res) != 1 || len(res[0].Rows) != 1 {
		t.Fatalf("chaos-disconnect produced %d results", len(res))
	}
	// The run's devices sit behind fault wrappers; its observability block
	// must still carry the NAND series (write amplification is >= 1 by
	// definition — 0 means the model was never attached).
	if len(cx.obsRuns) != 1 || cx.obsRuns[0].WriteAmp < 1 {
		t.Errorf("observability block lost the NAND telemetry: %+v", cx.obsRuns)
	}
	row := res[0].Rows[0]
	// Header: scheme, dead_credit_before, dead_credit_after, survivor_pre,
	// survivor_post, aborted_ios, reclaimed.
	if row[2] != "0" {
		t.Errorf("dead tenant's credit after teardown = %s, want 0", row[2])
	}
	if row[6] != "yes" {
		t.Errorf("credit reclaim column = %q (before=%s after=%s)", row[6], row[1], row[2])
	}
}

// TestChaosDeterministic asserts the chaos experiment family is
// seed-deterministic and byte-identical under -parallel.
func TestChaosDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full chaos family four times; skipped in -short")
	}
	checkDeterministic(t, 1, "chaos-brownout", "chaos-fabric", "chaos-disconnect")
}
