package gimbal

import (
	"errors"
	"testing"
	"time"

	"gimbal/internal/fault"
)

func mustSSD(t *testing.T, j *JBOF, ssd int) *Volume {
	t.Helper()
	v, err := j.WholeSSDVolume(ssd)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func mustStart(t *testing.T, j *JBOF, ssd int, opts ...WorkloadOption) *Stream {
	t.Helper()
	st, err := mustSSD(t, j, ssd).StartWorkload(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestFacadeQuickstartFlow(t *testing.T) {
	s := NewSim(42)
	jbof, err := s.NewJBOF(WithScheme(SchemeGimbal), WithSSDs(2), WithCondition(Clean),
		WithCapacity(1<<30))
	if err != nil {
		t.Fatal(err)
	}
	if jbof.SSDCount() != 2 {
		t.Fatalf("SSDs = %d", jbof.SSDCount())
	}
	if cap0 := mustSSD(t, jbof, 0).Capacity(); cap0 != 1<<30 {
		t.Fatalf("capacity = %d", cap0)
	}
	st := mustStart(t, jbof, 0, WithReadFraction(1), WithIOSize(4096), WithQueueDepth(8))
	s.Run(200 * time.Millisecond)
	if st.BandwidthMBps() <= 0 {
		t.Fatal("no bandwidth measured")
	}
	lat := st.ReadLatency()
	if lat.Count == 0 || lat.Avg <= 0 || lat.P999 < lat.P50 {
		t.Fatalf("latency summary inconsistent: %+v", lat)
	}
	if _, err := mustSSD(t, jbof, 0).View(); err != nil {
		t.Fatalf("gimbal JBOF should expose a view: %v", err)
	}
	if st.Done() {
		t.Fatal("running stream reports Done")
	}
	if st.Err() != nil {
		t.Fatalf("healthy stream reports %v", st.Err())
	}
	st.Stop()
	if !st.Done() {
		t.Fatal("stopped stream does not report Done")
	}
	if st.Err() != nil {
		t.Fatalf("clean Stop is not a failure, got %v", st.Err())
	}
	if s.Now() < 200*time.Millisecond {
		t.Fatalf("clock = %v", s.Now())
	}
}

func TestFacadeVanillaHasNoView(t *testing.T) {
	s := NewSim(1)
	jbof, err := s.NewJBOF(WithScheme(SchemeVanilla), WithCapacity(1<<30))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mustSSD(t, jbof, 0).View(); !errors.Is(err, ErrNoView) {
		t.Fatalf("vanilla view error = %v, want ErrNoView", err)
	}
}

func TestFacadeTypedErrors(t *testing.T) {
	s := NewSim(1)
	if _, err := s.NewJBOF(WithScheme("bogus")); !errors.Is(err, ErrUnknownScheme) {
		t.Fatalf("bogus scheme error = %v, want ErrUnknownScheme", err)
	}
	if _, err := s.NewJBOF(WithCondition("soggy")); !errors.Is(err, ErrUnknownCondition) {
		t.Fatalf("bogus condition error = %v, want ErrUnknownCondition", err)
	}
	jbof, err := s.NewJBOF(WithSSDs(2), WithCapacity(1<<30))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jbof.WholeSSDVolume(2); !errors.Is(err, ErrBadSSDIndex) {
		t.Fatalf("WholeSSDVolume(2) error = %v, want ErrBadSSDIndex", err)
	}
	if _, err := jbof.WholeSSDVolume(-1); !errors.Is(err, ErrBadSSDIndex) {
		t.Fatalf("WholeSSDVolume(-1) error = %v, want ErrBadSSDIndex", err)
	}
	if _, err := jbof.DeviceStats(7); !errors.Is(err, ErrBadSSDIndex) {
		t.Fatalf("DeviceStats(7) error = %v, want ErrBadSSDIndex", err)
	}
	if err := jbof.InjectFaults(FaultPlan{Events: []FaultEvent{
		{Kind: SSDFail, SSD: 9},
	}}); !errors.Is(err, ErrBadFaultPlan) {
		t.Fatalf("out-of-range fault plan error = %v, want ErrBadFaultPlan", err)
	}
	if err := jbof.InjectFaults(FaultPlan{Events: []FaultEvent{
		{Kind: FabricDrop, Stream: 0, Prob: 0.5, Duration: time.Second},
	}}); !errors.Is(err, ErrBadFaultPlan) {
		t.Fatalf("fabric fault without streams error = %v, want ErrBadFaultPlan", err)
	}
}

// TestFacadeFaultKinds: every facade fault kind maps to its own fault.Kind,
// together they cover every kind the engine has, InjectFaults arms and
// fires a plan of each, and the value past the last kind is refused.
func TestFacadeFaultKinds(t *testing.T) {
	s := NewSim(13)
	jbof, err := s.NewJBOF(WithCondition(Clean), WithCapacity(64<<20))
	if err != nil {
		t.Fatal(err)
	}
	mustStart(t, jbof, 0, WithReadFraction(1), WithQueueDepth(4))
	seen := map[fault.Kind]FaultKind{}
	for k := SSDLatencySpike; k <= FabricDisconnect; k++ {
		ik, err := k.internal()
		if err != nil {
			t.Fatalf("kind %d: %v", k, err)
		}
		if prev, dup := seen[ik]; dup {
			t.Fatalf("kinds %d and %d both map to %s", prev, k, ik)
		}
		seen[ik] = k
		if err := jbof.InjectFaults(FaultPlan{Seed: 13, Events: []FaultEvent{{
			Kind: k, At: time.Millisecond, Duration: time.Millisecond,
			Factor: 2, Extra: time.Microsecond, Prob: 0.5,
		}}}); err != nil {
			t.Fatalf("%s: %v", ik, err)
		}
	}
	if len(seen) != int(fault.FabricDisconnect)+1 {
		t.Fatalf("facade kinds cover %d of %d fault kinds", len(seen), int(fault.FabricDisconnect)+1)
	}
	if _, err := (FabricDisconnect + 1).internal(); !errors.Is(err, ErrBadFaultPlan) {
		t.Fatalf("kind past the last: %v, want ErrBadFaultPlan", err)
	}
	s.Run(10 * time.Millisecond)
	if jbof.engine.Armed != len(seen) || jbof.engine.Fired < int64(len(seen)) {
		t.Fatalf("engine armed %d and fired %d transitions for %d kinds", jbof.engine.Armed, jbof.engine.Fired, len(seen))
	}
}

func TestFacadeOptionDefaults(t *testing.T) {
	s := NewSim(5)
	// No options at all: 1 gimbal SSD, fresh, default capacity.
	jbof, err := s.NewJBOF()
	if err != nil {
		t.Fatal(err)
	}
	if jbof.SSDCount() != 1 {
		t.Fatalf("default SSDs = %d, want 1", jbof.SSDCount())
	}
	if _, err := mustSSD(t, jbof, 0).View(); err != nil {
		t.Fatalf("default scheme should be gimbal (has a view), got %v", err)
	}
	// No workload options: a 4KB QD1 random reader that moves data.
	st := mustStart(t, jbof, 0, WithReadFraction(1))
	s.Run(100 * time.Millisecond)
	if st.BandwidthMBps() <= 0 {
		t.Fatal("default workload idle")
	}
	// A second tenant on the same SSD, fully specified.
	st2 := mustStart(t, jbof, 0, WithReadFraction(1), WithIOSize(4096), WithQueueDepth(8), WithWorkloadName("combo"))
	s.Run(100 * time.Millisecond)
	if st2.BandwidthMBps() <= 0 {
		t.Fatal("second workload idle")
	}
}

func TestFacadeDeterminism(t *testing.T) {
	run := func() (float64, float64) {
		s := NewSim(7)
		jbof, err := s.NewJBOF(WithScheme(SchemeGimbal), WithCondition(Fragmented),
			WithCapacity(1<<30))
		if err != nil {
			t.Fatal(err)
		}
		a := mustStart(t, jbof, 0, WithReadFraction(1), WithIOSize(4096), WithQueueDepth(16))
		b := mustStart(t, jbof, 0, WithReadFraction(0), WithIOSize(4096), WithQueueDepth(16))
		s.Run(300 * time.Millisecond)
		return a.BandwidthMBps(), b.BandwidthMBps()
	}
	a1, b1 := run()
	a2, b2 := run()
	if a1 != a2 || b1 != b2 {
		t.Fatalf("same seed diverged: (%v,%v) vs (%v,%v)", a1, b1, a2, b2)
	}
	if a1 <= 0 || b1 <= 0 {
		t.Fatalf("streams idle: %v %v", a1, b1)
	}
}

func TestFacadeRateLimit(t *testing.T) {
	s := NewSim(3)
	jbof, err := s.NewJBOF(WithScheme(SchemeVanilla), WithCondition(Clean),
		WithCapacity(1<<30))
	if err != nil {
		t.Fatal(err)
	}
	st := mustStart(t, jbof, 0, WithReadFraction(1), WithIOSize(4096), WithQueueDepth(16),
		WithRateLimitMBps(50))
	s.Run(1 * time.Second)
	if bw := st.BandwidthMBps(); bw > 60 || bw < 35 {
		t.Fatalf("rate-limited stream at %.1f MB/s, want ~50", bw)
	}
}

func TestFacadeP3600Model(t *testing.T) {
	s := NewSim(3)
	jbof, err := s.NewJBOF(WithScheme(SchemeVanilla), WithCondition(Clean),
		WithCapacity(1<<30), WithP3600())
	if err != nil {
		t.Fatal(err)
	}
	st := mustStart(t, jbof, 0, WithReadFraction(1), WithIOSize(128<<10), WithQueueDepth(8))
	s.Run(500 * time.Millisecond)
	// The P3600 model caps 128KB reads near 2.1 GB/s (vs 3.2 on DCT983).
	if bw := st.BandwidthMBps(); bw < 1500 || bw > 2400 {
		t.Fatalf("P3600 128KB read = %.0f MB/s, want ~2100", bw)
	}
}

func TestFacadeDeviceStats(t *testing.T) {
	s := NewSim(3)
	jbof, err := s.NewJBOF(WithScheme(SchemeGimbal), WithCondition(Fragmented),
		WithCapacity(1<<30))
	if err != nil {
		t.Fatal(err)
	}
	mustStart(t, jbof, 0, WithReadFraction(0), WithIOSize(4096), WithQueueDepth(16))
	s.Run(500 * time.Millisecond)
	st, err := jbof.DeviceStats(0)
	if err != nil {
		t.Fatal(err)
	}
	if st.WriteBytes == 0 {
		t.Fatal("no writes recorded")
	}
	if st.WriteAmplification < 1.5 {
		t.Fatalf("fragmented WA = %.2f, want amplification", st.WriteAmplification)
	}
	if st.GCMovedPages == 0 || st.Erases == 0 {
		t.Fatalf("GC idle on fragmented device: %+v", st)
	}
}

// TestFacadeFaultDeviceFail injects a permanent device failure and asserts
// the stream gives up with the typed error while its sibling on the
// healthy SSD keeps running.
func TestFacadeFaultDeviceFail(t *testing.T) {
	s := NewSim(9)
	jbof, err := s.NewJBOF(WithScheme(SchemeGimbal), WithSSDs(2), WithCondition(Clean),
		WithCapacity(1<<30))
	if err != nil {
		t.Fatal(err)
	}
	doomed := mustStart(t, jbof, 0, WithReadFraction(1), WithQueueDepth(8),
		WithMaxConsecutiveErrs(16))
	healthy := mustStart(t, jbof, 1, WithReadFraction(1), WithQueueDepth(8))
	if err := jbof.InjectFaults(FaultPlan{Seed: 9, Events: []FaultEvent{
		{Kind: SSDFail, At: 50 * time.Millisecond, SSD: 0},
	}}); err != nil {
		t.Fatal(err)
	}
	s.Run(500 * time.Millisecond)
	if !doomed.Done() {
		t.Fatal("stream on failed device never gave up")
	}
	if err := doomed.Err(); !errors.Is(err, ErrDeviceFailed) {
		t.Fatalf("doomed stream Err = %v, want ErrDeviceFailed", err)
	}
	if healthy.Done() || healthy.Err() != nil {
		t.Fatalf("healthy stream disturbed: done=%v err=%v", healthy.Done(), healthy.Err())
	}
	if healthy.BandwidthMBps() <= 0 {
		t.Fatal("healthy stream idle")
	}
	v, err := mustSSD(t, jbof, 0).View()
	if err != nil {
		t.Fatal(err)
	}
	if !v.Failed {
		t.Fatal("failed device's view does not report Failed")
	}
}

// TestFacadeFaultBrownoutRetry injects a brownout and asserts a stream
// armed with a retry policy rides it out: deadlines fire, reissues happen,
// and after the window the stream is healthy again.
func TestFacadeFaultBrownoutRetry(t *testing.T) {
	s := NewSim(11)
	jbof, err := s.NewJBOF(WithScheme(SchemeGimbal), WithCondition(Clean),
		WithCapacity(1<<30))
	if err != nil {
		t.Fatal(err)
	}
	st := mustStart(t, jbof, 0, WithReadFraction(1), WithQueueDepth(8),
		WithRetry(RetryPolicy{Timeout: 3 * time.Millisecond, MaxRetries: 5,
			Backoff: 250 * time.Microsecond, BackoffCap: 2 * time.Millisecond}),
		WithMaxConsecutiveErrs(-1))
	if err := jbof.InjectFaults(FaultPlan{Seed: 11, Events: []FaultEvent{
		{Kind: SSDBrownout, At: 100 * time.Millisecond, Duration: 100 * time.Millisecond,
			SSD: 0, Factor: 200},
	}}); err != nil {
		t.Fatal(err)
	}
	s.Run(400 * time.Millisecond)
	if st.Retries() == 0 {
		t.Fatal("brownout never forced a reissue")
	}
	if st.Done() {
		t.Fatalf("stream with unbounded errors gave up: %v", st.Err())
	}
	st.ResetStats()
	s.Run(100 * time.Millisecond)
	if st.BandwidthMBps() <= 0 {
		t.Fatal("stream did not recover after the brownout window")
	}
}
