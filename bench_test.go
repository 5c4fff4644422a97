package gimbal

// Hot-path micro-benchmarks for the switch components, the event engine
// and the device model, plus the zero-allocation pins. Run:
//
//	go test -bench=. -benchmem
//
// Paper Table 1 is not here: tab1a/tab1b (gimbalbench) charge each scheme its
// published per-IO cost in simulated time, and this implementation's own
// host time per IO, Gimbal against vanilla, is the perf ledger's sim-null-4k
// overhead_ratio (benchmark/).

import (
	"fmt"
	"testing"

	"gimbal/internal/core"
	"gimbal/internal/core/latmon"
	"gimbal/internal/core/ratectl"
	"gimbal/internal/core/sched"
	"gimbal/internal/fabric"
	"gimbal/internal/fault"
	"gimbal/internal/kvstore"
	"gimbal/internal/nvme"
	"gimbal/internal/obs"
	"gimbal/internal/sim"
	"gimbal/internal/ssd"
	"gimbal/internal/stats"
)

// --- Hot-path micro-benchmarks ---

func BenchmarkLatencyMonitorUpdate(b *testing.B) {
	m := latmon.New(latmon.DefaultConfig())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Update(int64(100_000 + i%500_000))
	}
}

func BenchmarkTokenBucketRefillConsume(b *testing.B) {
	e := ratectl.New(ratectl.DefaultConfig(), 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Refill(int64(i)*1000, 3)
		e.Admit(i%4 == 0, 4096, 3)
	}
}

func BenchmarkDRRSelectCommitComplete(b *testing.B) {
	d := sched.New(sched.DefaultConfig(), func(io *nvme.IO) int64 { return int64(io.Size) })
	tenants := make([]*nvme.Tenant, 16)
	for i := range tenants {
		tenants[i] = nvme.NewTenant(i, "t")
		d.Register(tenants[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		io := &nvme.IO{Op: nvme.OpRead, Size: 4096, Priority: nvme.PriorityNormal,
			Tenant: tenants[i%16]}
		d.Enqueue(io)
		got := d.Select()
		d.Commit(got)
		d.Complete(got)
	}
}

func BenchmarkCapsuleEncodeDecode(b *testing.B) {
	c := &fabric.CommandCapsule{CID: 7, Opcode: nvme.OpRead, SLBA: 123, Length: 4096}
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = fabric.AppendCommand(buf[:0], c)
		if _, _, err := fabric.DecodeCommand(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHistogramRecord(b *testing.B) {
	h := stats.NewHistogram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i%10_000_000 + 1000))
	}
}

func BenchmarkSSDReadPath(b *testing.B) {
	loop := sim.NewLoop()
	p := ssd.DCT983()
	p.UsableBytes = 1 << 30
	dev := ssd.New(loop, p)
	dev.Precondition(ssd.Clean, sim.NewRNG(1))
	rng := sim.NewRNG(2)
	remaining := b.N
	var next func()
	next = func() {
		if remaining <= 0 {
			return
		}
		remaining--
		dev.Submit(&ssd.Request{Kind: ssd.OpRead, Offset: rng.Int63n(1<<18) * 4096,
			Size: 4096, Done: func(*ssd.Request) { next() }})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < 32; i++ {
		next()
	}
	loop.Run()
}

func BenchmarkSSDWritePathWithGC(b *testing.B) {
	loop := sim.NewLoop()
	p := ssd.DCT983()
	p.UsableBytes = 512 << 20
	dev := ssd.New(loop, p)
	dev.Precondition(ssd.Fragmented, sim.NewRNG(1))
	rng := sim.NewRNG(2)
	remaining := b.N
	var next func()
	next = func() {
		if remaining <= 0 {
			return
		}
		remaining--
		dev.Submit(&ssd.Request{Kind: ssd.OpWrite, Offset: rng.Int63n(1<<17) * 4096,
			Size: 4096, Done: func(*ssd.Request) { next() }})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < 32; i++ {
		next()
	}
	loop.Run()
}

func BenchmarkMemtablePut(b *testing.B) {
	m := kvstore.NewMemtable(sim.NewRNG(1))
	v := make([]byte, 100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Put(kvstore.Entry{K: kvstore.Key(i % 100_000), V: v, VLen: 100})
	}
}

func BenchmarkBloomLookup(b *testing.B) {
	f := kvstore.NewBloom(100_000, 10)
	for i := 0; i < 100_000; i++ {
		f.Add(kvstore.Key(i))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.MayContain(kvstore.Key(i))
	}
}

func BenchmarkEventLoopStep(b *testing.B) {
	loop := sim.NewLoop()
	b.ReportAllocs()
	b.ResetTimer()
	remaining := b.N
	var tick func()
	tick = func() {
		if remaining > 0 {
			remaining--
			loop.After(100, tick)
		}
	}
	loop.After(100, tick)
	loop.Run()
}

// BenchmarkLoopThroughput is the event-engine acceptance benchmark: 512
// concurrently armed self-rescheduling timers with varied (deterministic)
// periods, the queue shape the rate pacers, latency monitors, and worker
// think-timers produce in a real experiment. Each iteration is one event
// fired; events/sec = 1e9 / (ns/op). Steady state must be 0 allocs/op:
// every firing reuses the arena slot it just freed.
func BenchmarkLoopThroughput(b *testing.B) {
	const timers = 512
	loop := sim.NewLoop()
	remaining := b.N
	ticks := make([]func(), timers)
	for i := range ticks {
		period := int64(50 + 13*(i%37)) // varied but deterministic
		i := i
		ticks[i] = func() {
			if remaining > 0 {
				remaining--
				loop.After(period, ticks[i])
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for _, tick := range ticks {
		loop.After(1, tick)
	}
	loop.Run()
}

// BenchmarkAtCancel measures the schedule+cancel churn path — the pacer
// arming a timer per IO and cancelling it when credits arrive first —
// behind a long-lived daemon event, exercising lazy cancellation and heap
// compaction.
func BenchmarkAtCancel(b *testing.B) {
	loop := sim.NewLoop()
	loop.At(1<<40, func() {}).MarkDaemon()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loop.After(int64(1000+i%512), func() {}).Cancel()
	}
}

// BenchmarkTimerReschedule measures the re-key path the rate pacers take
// on every stalled pump pass: one long-lived timer moved per op, behind
// 512 pending one-shots. Compare BenchmarkAtCancel, the cancel-and-arm
// cycle it replaced.
func BenchmarkTimerReschedule(b *testing.B) {
	loop := sim.NewLoop()
	for i := 0; i < 512; i++ {
		loop.At(1<<40+int64(i), func() {})
	}
	h := loop.At(1000, func() {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h = h.Reschedule(int64(1000 + i%512))
	}
	b.StopTimer()
	if !h.Active() {
		b.Fatal("timer lost")
	}
}

// BenchmarkTimerMovableCycle is one pacing cycle as a paced switch runs it
// per admitted IO: arm where the timer will be re-keyed (AtMovable), two
// stalled passes re-key it, it fires — behind 512 pending one-shots on the
// main heap, which the cycle never touches. The At sub-benchmark is the same
// cycle armed on the main heap (push, tombstone, move, burial pop).
func BenchmarkTimerMovableCycle(b *testing.B) {
	b.Run("AtMovable", func(b *testing.B) { benchTimerCycle(b, true) })
	b.Run("At", func(b *testing.B) { benchTimerCycle(b, false) })
}

func benchTimerCycle(b *testing.B, movable bool) {
	loop := sim.NewLoop()
	for i := 0; i < 512; i++ {
		loop.At(1<<40+int64(i), func() {})
	}
	arm, nop := loop.At, func() {}
	if movable {
		arm = loop.AtMovable
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := loop.Now()
		h := arm(now+100, nop)
		h = h.Reschedule(now + 90)
		h.Reschedule(now + 80)
		loop.Step()
	}
	b.StopTimer()
	if loop.Pending() != 512 || loop.Now() != 80*int64(b.N) {
		b.Fatalf("%d events pending at t=%d, want the 512 one-shots at t=%d", loop.Pending(), loop.Now(), 80*b.N)
	}
}

// TestLoopSchedulingAllocFree pins the event engine's zero-allocation
// contract: once the arena is warm, the schedule→fire→reschedule cycle of
// a self-rescheduling timer, the schedule→cancel cycle of a churny one and
// the arm→re-key→fire cycle of a pacing timer must not allocate.
func TestLoopSchedulingAllocFree(t *testing.T) {
	loop := sim.NewLoop()
	n := 0
	var tick func()
	tick = func() {
		if n > 0 {
			n--
			loop.After(100, tick)
		}
	}
	// Warm the arena, heap, and free list.
	n = 64
	loop.After(100, tick)
	loop.Run()

	if avg := testing.AllocsPerRun(100, func() {
		n = 8
		loop.After(100, tick)
		loop.Run()
	}); avg > 0 {
		t.Errorf("schedule/fire cycle allocates %.1f objects per run, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		loop.After(100, func() {}).Cancel()
	}); avg > 0 {
		t.Errorf("schedule/cancel cycle allocates %.1f objects per run, want 0", avg)
	}
	nop := func() {}
	if avg := testing.AllocsPerRun(100, func() {
		h := loop.After(100, nop)
		for i := int64(0); i < 8; i++ {
			h = h.Reschedule(loop.Now() + 50 + 10*i)
		}
		loop.Run()
	}); avg > 0 {
		t.Errorf("arm/reschedule/fire cycle allocates %.1f objects per run, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		h := loop.AtMovable(loop.Now()+100, nop)
		for i := int64(0); i < 8; i++ {
			h = h.Reschedule(loop.Now() + 50 + 10*i)
		}
		loop.Run()
	}); avg > 0 {
		t.Errorf("arm-movable/reschedule/fire cycle allocates %.1f objects per run, want 0", avg)
	}
}

// TestSwitchSubmitAllocFree pins the per-IO zero-allocation contract of
// the full Gimbal switch path on a NULL device: enqueue → DRR → vslot →
// submit → complete. The IO itself is recycled by the caller here, as the
// fabric layer's session does with its own request pool. The device sits
// behind the fault-injection wrapper with no plan armed, so the contract
// covers the deployment shape the facade and gimbald actually build.
func TestSwitchSubmitAllocFree(t *testing.T) {
	loop := sim.NewLoop()
	dev := fault.Wrap(loop, ssd.NewNull(loop, 8<<30, 100))
	s := core.New(loop, dev, core.DefaultConfig())
	tenant := nvme.NewTenant(0, "t0")
	s.Register(tenant)
	io := &nvme.IO{}
	done := func(*nvme.IO, nvme.Completion) {}
	// Warm: first submits grow DRR rings, vslot free lists, the event arena.
	for i := 0; i < 64; i++ {
		*io = nvme.IO{Op: nvme.OpRead, Offset: int64(i) * 4096, Size: 4096,
			Priority: nvme.PriorityNormal, Tenant: tenant, Done: done}
		s.Enqueue(io)
		loop.Run()
	}
	if avg := testing.AllocsPerRun(100, func() {
		*io = nvme.IO{Op: nvme.OpRead, Offset: 4096, Size: 4096,
			Priority: nvme.PriorityNormal, Tenant: tenant, Done: done}
		s.Enqueue(io)
		loop.Run()
	}); avg > 0 {
		t.Errorf("switch submit path allocates %.1f objects per IO, want 0", avg)
	}
}

// TestSwitchTracedSubmitAllocFree extends the zero-allocation contract to
// the fully observed deployment shape: registry histograms, the sampled
// span tracer, exemplar capture, and the SLO event log all attached. The
// trace travels by value into the preallocated ring and the exemplar slot
// is a mutex-guarded value, so even the IOs that ARE sampled must not
// allocate. CI runs this as the alloc-regression gate for the tracer.
func TestSwitchTracedSubmitAllocFree(t *testing.T) {
	loop := sim.NewLoop()
	dev := fault.Wrap(loop, ssd.NewNull(loop, 8<<30, 100))
	s := core.New(loop, dev, core.DefaultConfig())
	hub := obs.NewHub(obs.NewRegistry())
	hub.Tracer = obs.NewTracer(obs.TracerConfig{
		Capacity: 1024, Mode: obs.TraceSampled, SlowNs: 1_000_000, SampleEvery: 4,
	})
	hub.Events = obs.NewEventLog(64)
	s.AttachObs(hub, 0)
	tenant := nvme.NewTenant(0, "t0")
	s.Register(tenant)
	io := &nvme.IO{}
	done := func(*nvme.IO, nvme.Completion) {}
	for i := 0; i < 64; i++ {
		*io = nvme.IO{Op: nvme.OpRead, Offset: int64(i) * 4096, Size: 4096,
			Priority: nvme.PriorityNormal, Tenant: tenant, Done: done}
		s.Enqueue(io)
		loop.Run()
	}
	if avg := testing.AllocsPerRun(100, func() {
		*io = nvme.IO{Op: nvme.OpRead, Offset: 4096, Size: 4096,
			Priority: nvme.PriorityNormal, Tenant: tenant, Done: done}
		s.Enqueue(io)
		loop.Run()
	}); avg > 0 {
		t.Errorf("traced switch submit path allocates %.1f objects per IO, want 0", avg)
	}
	if hub.Tracer.Captured() == 0 {
		t.Error("sampled tracer captured nothing; the contract above tested the wrong path")
	}
}

// benchObsOverhead is the observability-overhead ablation behind the
// "sampled tracing costs ≲2% over plain metrics" claim: 8 tenants × QD32 of
// 4KB reads through the switch over a NULL device, counters/histograms
// attached throughout and only the span-capture policy varying (off /
// tail-biased sampling / full), plus a fully unattached baseline isolating
// the metrics cost itself.
func benchObsOverhead(b *testing.B, mode obs.TraceMode, attach bool) {
	loop := sim.NewLoop()
	dev := ssd.NewNull(loop, 8<<30, 100)
	s := core.New(loop, dev, core.DefaultConfig())
	if attach {
		hub := obs.NewHub(obs.NewRegistry())
		if mode != obs.TraceOff {
			cfg := obs.DefaultTracerConfig()
			cfg.Mode = mode
			hub.Tracer = obs.NewTracer(cfg)
		}
		hub.Events = obs.NewEventLog(256)
		s.AttachObs(hub, 0)
	}
	remaining := b.N
	rng := sim.NewRNG(3)
	var submit func(t *nvme.Tenant)
	submit = func(t *nvme.Tenant) {
		if remaining <= 0 {
			return
		}
		remaining--
		io := &nvme.IO{Op: nvme.OpRead, Offset: rng.Int63n(1<<20) * 4096, Size: 4096, Tenant: t}
		io.Done = func(*nvme.IO, nvme.Completion) { submit(t) }
		s.Enqueue(io)
	}
	tenants := make([]*nvme.Tenant, 8)
	for i := range tenants {
		tenants[i] = nvme.NewTenant(i, fmt.Sprintf("t%d", i))
		s.Register(tenants[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for _, t := range tenants {
		for i := 0; i < 32; i++ {
			submit(t)
		}
	}
	loop.Run()
}

// BenchmarkObsOverhead: Unattached is the bare switch, Off has metrics but
// no tracer, Sampled is the default deployment shape, Full the every-IO
// capture bound. Note this closed 256-deep loop over a 100ns NULL device is
// deliberately congested: ~11% of IOs breach the 1ms SlowNs threshold, so
// Sampled pays the capture path for the whole tail (by design) and lands
// ~12% over Off here; the unsampled per-IO cost is one atomic add and two
// compares. Deltas and the analysis are in EXPERIMENTS.md "History (pre-ledger)".
func BenchmarkObsOverhead(b *testing.B) {
	b.Run("Unattached", func(b *testing.B) { benchObsOverhead(b, obs.TraceOff, false) })
	b.Run("Off", func(b *testing.B) { benchObsOverhead(b, obs.TraceOff, true) })
	b.Run("Sampled", func(b *testing.B) { benchObsOverhead(b, obs.TraceSampled, true) })
	b.Run("Full", func(b *testing.B) { benchObsOverhead(b, obs.TraceFull, true) })
}
