package obs

import (
	"strings"
	"testing"
)

// observe is what the switch does with each completed IO: Sample, then
// Capture what it keeps.
func observe(t *Tracer, tr IOTrace) (uint64, bool) {
	if !t.Sample(tr.Done - tr.Arrival) {
		return 0, false
	}
	return t.Capture(tr), true
}

// TestTracerNilSafe: a tracer that would capture nothing is no tracer at
// all, and a nil tracer captures nothing and has no ring.
func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	for i := 0; i < 5; i++ {
		if _, ok := observe(tr, IOTrace{Timeline: Timeline{Done: 5000}}); ok {
			t.Fatal("nil tracer captured")
		}
	}
	if tr.Ring() != nil {
		t.Fatal("nil tracer has a ring")
	}
}

// TestTracerSpanIDsMonotone: SampleEvery 1 captures every IO, with span ids
// 1..n in capture order.
func TestTracerSpanIDsMonotone(t *testing.T) {
	tr := NewTracer(TracerConfig{Capacity: 8, SampleEvery: 1})
	for i := 1; i <= 5; i++ {
		id, ok := observe(tr, IOTrace{Timeline: Timeline{Arrival: 0, Done: 1}})
		if !ok || id != uint64(i) {
			t.Fatalf("span id = %d ok=%v, want %d", id, ok, i)
		}
	}
	snap := tr.Ring().Snapshot()
	if tr.Seen() != 5 || tr.Captured() != 5 || len(snap) != 5 || snap[0].Span != 1 || snap[4].Span != 5 {
		t.Fatalf("seen=%d captured=%d ring=%d, want 5/5 with spans 1..5", tr.Seen(), tr.Captured(), len(snap))
	}
}

// TestTracerConfigs: the capture policy is SlowNs and SampleEvery alone;
// either trigger works without the other.
func TestTracerConfigs(t *testing.T) {
	slow := NewTracer(TracerConfig{Capacity: 64, SlowNs: 1000})
	for i := 0; i < 100; i++ {
		if _, ok := observe(slow, IOTrace{Timeline: Timeline{Arrival: 0, Done: 999}}); ok {
			t.Fatal("slow-only tracer captured a fast IO")
		}
	}
	for i := 0; i < 7; i++ {
		if _, ok := observe(slow, IOTrace{Timeline: Timeline{Arrival: 0, Done: 1000}}); !ok {
			t.Fatal("slow-only tracer skipped a slow IO")
		}
	}
	if slow.Seen() != 107 || slow.Captured() != 7 {
		t.Fatalf("slow-only: seen=%d captured=%d, want 107/7", slow.Seen(), slow.Captured())
	}

	nth := NewTracer(TracerConfig{Capacity: 64, SampleEvery: 10})
	for i := 0; i < 100; i++ {
		_, ok := observe(nth, IOTrace{Timeline: Timeline{Arrival: 0, Done: int64(i) * 1_000_000}})
		if want := i%10 == 0; ok != want {
			t.Fatalf("every-10th-only: IO %d captured=%v, want %v", i, ok, want)
		}
	}
	if nth.Seen() != 100 || nth.Captured() != 10 {
		t.Fatalf("every-10th-only: seen=%d captured=%d, want 100/10", nth.Seen(), nth.Captured())
	}

	// Both triggers: the first and every 10th fast IO, plus every slow one
	// regardless of the sampling phase.
	s := NewTracer(TracerConfig{Capacity: 64, SlowNs: 1000, SampleEvery: 10})
	for i := 0; i < 100; i++ {
		observe(s, IOTrace{Timeline: Timeline{Arrival: 0, Done: 10}})
	}
	if s.Captured() != 10 {
		t.Fatalf("sampled captured %d fast IOs, want 10", s.Captured())
	}
	for i := 0; i < 7; i++ {
		if _, ok := observe(s, IOTrace{Timeline: Timeline{Arrival: 0, Done: 1000}}); !ok {
			t.Fatal("sampled tracer skipped a slow IO")
		}
	}
	if s.Seen() != 107 || s.Captured() != 17 {
		t.Fatalf("sampled: seen=%d captured=%d, want 107/17", s.Seen(), s.Captured())
	}
}

// TestTraceRingCapacityBoundary pins the wraparound contract at the exact
// boundary: after precisely capacity appends the ring is full, nothing is
// lost, and the snapshot is still oldest-first; one more append evicts
// exactly the oldest entry.
func TestTraceRingCapacityBoundary(t *testing.T) {
	r := NewTraceRing(4)
	for i := 0; i < 4; i++ {
		r.Append(IOTrace{Timeline: Timeline{Arrival: int64(i)}})
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("len = %d, want 4", len(snap))
	}
	for i := range snap {
		if snap[i].Arrival != int64(i) {
			t.Fatalf("snap[%d].Arrival = %d, want %d (oldest-first)", i, snap[i].Arrival, i)
		}
	}
	r.Append(IOTrace{Timeline: Timeline{Arrival: 4}})
	snap = r.Snapshot()
	if snap[0].Arrival != 1 || snap[3].Arrival != 4 {
		t.Fatalf("after eviction snap = %d..%d, want 1..4", snap[0].Arrival, snap[3].Arrival)
	}
	if r.Total() != 5 || r.Len() != 4 || r.Cap() != 4 {
		t.Fatalf("total=%d len=%d cap=%d, want 5/4/4", r.Total(), r.Len(), r.Cap())
	}
}

func TestWriteJSONLFuncFilters(t *testing.T) {
	r := NewTraceRing(8)
	for i := 0; i < 6; i++ {
		tn := "a"
		if i%2 == 1 {
			tn = "b"
		}
		r.Append(IOTrace{Tenant: tn, Timeline: Timeline{Arrival: int64(i), Done: int64(i) + 100}})
	}
	var sb strings.Builder
	if err := r.WriteJSONLFunc(&sb, func(t *IOTrace) bool { return t.Tenant == "b" }, 2); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want 2 (filter + limit)", len(lines))
	}
	// Limit keeps the newest matches: arrivals 3 and 5.
	if !strings.Contains(lines[0], `"arrival_ns":3`) || !strings.Contains(lines[1], `"arrival_ns":5`) {
		t.Fatalf("unexpected tail: %q", lines)
	}
}

// TestIOTracePhaseAccounting: the phases are the timeline's adjacent
// differences, the vslot wait split out of arrival → admit and the GC
// stall out of submit → device done, and they sum to origin → done.
func TestIOTracePhaseAccounting(t *testing.T) {
	tr := IOTrace{Timeline: Timeline{
		Origin: 100, Arrival: 150, Admit: 250, Submit: 300,
		DevDone: 500, Done: 510, VslotNs: 60, GCNs: 120,
	}}
	want := [numPhases]int64{
		PhaseFabric:   50,
		PhaseQueue:    40, // 100 gross − 60 vslot
		PhaseVslot:    60,
		PhasePacing:   50,
		PhaseDevice:   80, // 200 gross − 120 gc
		PhaseGC:       120,
		PhaseComplete: 10,
	}
	if got := tr.Phases(); got != want {
		t.Fatalf("phases = %v, want %v", got, want)
	}
	if got := tr.Total(); got != 410 {
		t.Fatalf("total = %d, want 410", got)
	}
	for i, name := range TracePhases {
		if ns, ok := tr.Phase(name); !ok || ns != want[i] {
			t.Fatalf("Phase(%q) = %d, %v, want %d", name, ns, ok, want[i])
		}
	}
	if got := tr.DominantPhase(); got != "gc" {
		t.Fatalf("dominant = %q, want gc", got)
	}
	// Zero is a valid simulated time: a send at t=0 keeps its fabric leg.
	tr.Origin = 0
	if fab, total := tr.Phases()[PhaseFabric], tr.Total(); fab != 150 || total != 510 {
		t.Fatalf("t=0 send fabric/total = %d/%d, want 150/510", fab, total)
	}
}
