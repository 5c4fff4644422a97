package bench

import (
	"testing"

	"gimbal/internal/fabric"
	"gimbal/internal/obs"
	"gimbal/internal/sim"
	"gimbal/internal/ssd"
	"gimbal/internal/workload"
)

// TestPhaseLaw is the law the IO timeline obeys, checked on every trace
// the pipelines capture: each phase is non-negative and the phases sum to
// the total. It runs every scheme over a fragmented NAND with readers and
// writers contending, and the chaos-brownout rig (managed sessions whose
// IOs time out and are reissued) for every scheme. Nothing in the trace or
// the span histograms clamps a phase, so a layer that stamps out of order
// fails here.
func TestPhaseLaw(t *testing.T) {
	p := ssd.DCT983()
	p.UsableBytes = 512 << 20
	mixed := FioConfig{
		Cond: ssd.Fragmented, Params: p, NumSSD: 1, Seed: 5,
		Warm: 20 * sim.Millisecond, Dur: 60 * sim.Millisecond,
		Specs: []Spec{
			{Profile: workload.Profile{Name: "rd", ReadRatio: 1, IOSize: 4096, QD: 16}},
			{Profile: workload.Profile{Name: "wr", ReadRatio: 0, IOSize: 64 << 10, QD: 4}},
			{Profile: workload.Profile{Name: "mix", ReadRatio: 0.7, IOSize: 16 << 10, QD: 8}},
		},
	}
	for _, scheme := range []fabric.Scheme{fabric.SchemeGimbal, fabric.SchemeVanilla,
		fabric.SchemeReflex, fabric.SchemeFlashFQ, fabric.SchemeParda} {
		cfg := mixed
		cfg.Scheme = scheme
		checkPhaseLaw(t, scheme.String(), cfg)

		brown, _ := chaosBrownoutConfig(Test.scale().chaosUnit, scheme)
		retries := checkPhaseLaw(t, scheme.String()+"/chaos-brownout", brown)
		if retries == 0 {
			t.Errorf("%v/chaos-brownout: no session reissued an IO; the rig did not exercise retries", scheme)
		}
	}
}

// checkPhaseLaw runs cfg with the full tracer and checks every captured
// trace; it returns the sessions' reissue count.
func checkPhaseLaw(t *testing.T, name string, cfg FioConfig) (retries int64) {
	t.Helper()
	cfg.Trace = &obs.TracerConfig{Capacity: 1 << 17, Mode: obs.TraceFull}
	run := NewCtx(Test).Execute(cfg)
	ring := run.Hub.Ring()
	if ring.Len() == 0 || int64(ring.Len()) != int64(run.Hub.Tracer.Captured()) {
		t.Fatalf("%s: ring holds %d of %d captured traces; the check must see every one",
			name, ring.Len(), run.Hub.Tracer.Captured())
	}
	for _, tr := range ring.Snapshot() {
		var sum int64
		for i, ns := range tr.Phases() {
			if ns < 0 {
				t.Fatalf("%s: %s phase %d ns < 0 in %+v", name, obs.TracePhases[i], ns, tr)
			}
			sum += ns
		}
		if sum != tr.Total() {
			t.Fatalf("%s: phases sum to %d ns, total is %d in %+v", name, sum, tr.Total(), tr)
		}
	}
	for _, s := range run.Sessions {
		retries += s.Retries
	}
	return retries
}
