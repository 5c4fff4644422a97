package bench

import (
	"gimbal/internal/obs"
)

// ObsRun is the observability block recorded for one harness execution:
// the control-loop and device counters gathered from the run's registry
// after the drain. Gimbal-specific fields are zero for baseline schemes
// (only the Gimbal switch registers pacing/cost instruments).
type ObsRun struct {
	Scheme        string  `json:"scheme"`
	Workers       int     `json:"workers"`
	Submits       int64   `json:"submits"`
	Completions   int64   `json:"completions"`
	PacingStalls  int64   `json:"pacing_stalls"`
	CostTicks     int64   `json:"cost_ticks"`
	CostChanges   int64   `json:"cost_changes"`
	StateChanges  int64   `json:"congestion_transitions"`
	GCInvocations int64   `json:"gc_invocations"`
	FlushBatches  int64   `json:"flush_batches"`
	WriteAmp      float64 `json:"write_amp"`
}

// recordObsRun snapshots a finished run's registry into the context's
// collector.
func (c *Ctx) recordObsRun(r *FioRun) {
	snap := r.Reg.Snapshot()
	run := ObsRun{
		Scheme:        r.cfg.Scheme.String(),
		Workers:       len(r.Workers),
		Submits:       int64(obs.SumMetric(snap, "gimbal_submits_total")),
		Completions:   int64(obs.SumMetric(snap, "gimbal_completions_total")),
		PacingStalls:  int64(obs.SumMetric(snap, "gimbal_pacing_stalls_total")),
		CostTicks:     int64(obs.SumMetric(snap, "gimbal_cost_ticks_total")),
		CostChanges:   int64(obs.SumMetric(snap, "gimbal_cost_changes_total")),
		StateChanges:  int64(obs.SumMetric(snap, "gimbal_congestion_transitions_total")),
		GCInvocations: int64(obs.SumMetric(snap, "ssd_gc_invocations_total")),
		FlushBatches:  int64(obs.SumMetric(snap, "ssd_flush_batches_total")),
	}
	if n := len(r.Devices); n > 0 {
		run.WriteAmp = obs.SumMetric(snap, "ssd_write_amplification") / float64(n)
	}
	c.obsRuns = append(c.obsRuns, run)
}
