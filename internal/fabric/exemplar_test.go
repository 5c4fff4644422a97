package fabric

import (
	"fmt"
	"strings"
	"testing"

	"gimbal/internal/nvme"
	"gimbal/internal/obs"
	"gimbal/internal/sim"
	"gimbal/internal/ssd"
)

// TestDeviceExemplarOnStagedHistogram: the Gimbal switch stages its span
// samples and folds them into the histograms in batches of 256 IOs and at
// every collection; the capture path's device-latency exemplar slot is the
// same instrument's. After 3·256+17 traced reads, 17 of them staged,
// /metrics' device-latency family counts every read and carries the
// exemplar.
func TestDeviceExemplarOnStagedHistogram(t *testing.T) {
	const n = 3*256 + 17
	loop := sim.NewLoop()
	tgt := NewTarget(loop, []ssd.Device{ssd.NewNull(loop, 1<<30, 20*sim.Microsecond)}, DefaultTargetConfig(SchemeGimbal))
	hub := obs.NewHub(obs.NewRegistry())
	hub.Tracer = obs.NewTracer(obs.TracerConfig{Capacity: 64, SampleEvery: 1})
	tgt.AttachObs(hub)
	sess := tgt.Connect(nvme.NewTenant(0, "t0"), 0)
	rng := sim.NewRNG(3)
	submitted := 0
	var submit func()
	submit = func() {
		if submitted == n {
			return
		}
		submitted++
		sess.Submit(&nvme.IO{Op: nvme.OpRead, Offset: rng.Int63n(1<<16) * 4096, Size: 4096,
			Priority: nvme.PriorityNormal, Done: func(*nvme.IO, nvme.Completion) { submit() }})
	}
	for i := 0; i < 8; i++ {
		submit()
	}
	loop.Run()
	var b strings.Builder
	if err := hub.Reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf("gimbal_device_latency_ns_count{ssd=\"0\",op=\"read\"} %d\n", n),
		`# EXEMPLAR gimbal_device_latency_ns{ssd="0",op="read"} {span="`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("/metrics lacks %q:\n%s", want, b.String())
		}
	}
}
