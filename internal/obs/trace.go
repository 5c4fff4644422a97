package obs

import (
	"bufio"
	"encoding/json"
	"io"

	"gimbal/internal/nvme"
)

// IOTrace is the lifecycle record of one IO through a target pipeline: who
// it was (SSD, tenant, op, size) and its Timeline.
type IOTrace struct {
	Span   uint64 `json:"span,omitempty"` // tracer-assigned capture id
	SSD    int    `json:"ssd"`
	Tenant string `json:"tenant"`
	Op     string `json:"op"`
	Size   int    `json:"size"`

	Timeline
}

// Timeline is an IO's stamps alone, one per layer it crossed:
//
//	Origin   — transport send (the fabric session's send, or the TCP
//	           target's capsule receipt)
//	Arrival  — scheduler ingress (Enqueue)
//	Admit    — the scheduler's admission: for the Gimbal switch the pass
//	           that won the IO its DRR round; a baseline admits an IO when
//	           it dispatches it (vanilla at Enqueue)
//	Submit   — submission to the NVMe device (token pacing satisfied)
//	DevDone  — device completion
//	Done     — completion handed back toward the client
//
// plus two accumulated waits that cut across those timestamps:
//
//	VslotNs  — time the IO's tenant spent deferred with no open virtual
//	           slot (congestion-control clamp) while this IO was queued
//	GCNs     — device-side stall attributed to garbage collection
//	           (read suspend slices, write-buffer admission waits)
//
// All timestamps are nanoseconds on the owning scheduler's clock
// (sim.Scheduler.Now()), so simulated runs trace deterministically and the
// live daemon traces in wall-clock nanoseconds since process start. Zero
// is a valid time, never "unset". A span histogram needs only this much of
// an IO (the switch's records); a trace names the IO too.
type Timeline struct {
	Origin  int64 `json:"origin_ns"`
	Arrival int64 `json:"arrival_ns"`
	Admit   int64 `json:"admit_ns"`
	Submit  int64 `json:"submit_ns"`
	DevDone int64 `json:"dev_done_ns"`
	Done    int64 `json:"done_ns"`

	VslotNs int64 `json:"vslot_ns"`
	GCNs    int64 `json:"gc_ns"`
}

// Stamp fills t with io's timeline, its completion handed back at done. It
// writes field by field, into the caller's Timeline: the switch stamps one
// per completion, and there a struct copy costs more than the phases.
func (t *Timeline) Stamp(io *nvme.IO, done int64) {
	t.Origin, t.Arrival, t.Admit = io.Origin, io.Arrival, io.Admit
	t.Submit, t.DevDone, t.Done = io.DevSubmit, io.DevDone, done
	t.VslotNs, t.GCNs = io.VslotWait, io.GCWait
}

// Stamps is io's trace with its timeline stamped (Timeline.Stamp); the
// caller names the IO (SSD, Tenant, Op, Size) if it keeps it.
func Stamps(io *nvme.IO, done int64) IOTrace {
	var tr IOTrace
	tr.Stamp(io, done)
	return tr
}

// TracePhases names the decomposed spans in pipeline order; the names are
// the values accepted by the /trace?phase= filter and the columns of the
// slo-attrib attribution table.
var TracePhases = []string{"fabric", "queue", "vslot", "pacing", "device", "gc", "complete"}

// Phase indexes into Phases, in TracePhases order.
const (
	PhaseFabric = iota
	PhaseQueue
	PhaseVslot
	PhasePacing
	PhaseDevice
	PhaseGC
	PhaseComplete
	numPhases
)

// PhaseNs is the one definition of the decomposition, span i (a Phase
// index) of the timeline: the adjacent differences of the stamps, with the
// vslot wait split out of arrival → admit and the GC stall out of submit →
// device done. The spans sum to Total by construction, and a layer that
// stamps in order keeps every one non-negative (TestPhaseLaw checks both on
// every scheme). It is 0 for an index out of range.
func (t *Timeline) PhaseNs(i int) int64 {
	switch i {
	case PhaseFabric:
		return t.Arrival - t.Origin
	case PhaseQueue:
		return t.Admit - t.Arrival - t.VslotNs
	case PhaseVslot:
		return t.VslotNs
	case PhasePacing:
		return t.Submit - t.Admit
	case PhaseDevice:
		return t.DevDone - t.Submit - t.GCNs
	case PhaseGC:
		return t.GCNs
	case PhaseComplete:
		return t.Done - t.DevDone
	}
	return 0
}

// Phases is every span (PhaseNs) in TracePhases order. An IOTrace has them
// through its Timeline.
func (t *Timeline) Phases() (ph [numPhases]int64) {
	for i := range ph {
		ph[i] = t.PhaseNs(i)
	}
	return ph
}

// Total is the IO's whole residency behind the transport: origin → done.
func (t *Timeline) Total() int64 { return t.Done - t.Origin }

// Phase returns the named decomposed span (see TracePhases); ok is false
// for an unknown name.
func (t *IOTrace) Phase(name string) (ns int64, ok bool) {
	for i, n := range TracePhases {
		if n == name {
			return t.PhaseNs(i), true
		}
	}
	return 0, false
}

// DominantPhase names the longest decomposed span, earliest pipeline stage
// winning ties — the one-word answer to "where did this IO's time go?".
func (t *IOTrace) DominantPhase() string {
	best := 0
	ph := t.Phases()
	for i, ns := range ph {
		if ns > ph[best] {
			best = i
		}
	}
	return TracePhases[best]
}

// traceJSON is the JSONL export shape: raw timestamps plus derived spans,
// so a trace line is self-describing.
type traceJSON struct {
	IOTrace
	FabricNs   int64 `json:"fabric_ns"`
	QueueNs    int64 `json:"queue_ns"`
	PacingNs   int64 `json:"pacing_ns"`
	DeviceNs   int64 `json:"device_ns"`
	CompleteNs int64 `json:"complete_ns"`
}

// TraceRing is a fixed-capacity ring buffer of IO traces with ring's
// wraparound semantics (Append, Total, Snapshot oldest-first). Appends are
// O(1), allocation-free, and guarded by a mutex (they happen only when a
// recorder is attached; the unattached fast path is a nil check at the
// instrumentation site).
type TraceRing struct{ ring[IOTrace] }

// NewTraceRing returns a ring holding the last capacity traces.
func NewTraceRing(capacity int) *TraceRing {
	return &TraceRing{newRing[IOTrace](capacity)}
}

// Cap returns the ring capacity.
func (r *TraceRing) Cap() int { return len(r.buf) }

// Len returns the number of traces currently held.
func (r *TraceRing) Len() int { return r.held() }

// WriteJSONLFunc streams held traces passing keep (nil keeps all), oldest
// first, one JSON object per line carrying both raw timestamps and the
// derived spans, emitting at most limit lines (0 = unlimited). When limit
// trims the output, the newest matching traces win — the tail is what a
// latency investigation wants.
func (r *TraceRing) WriteJSONLFunc(w io.Writer, keep func(*IOTrace) bool, limit int) error {
	snap := r.Snapshot()
	if keep != nil {
		kept := snap[:0]
		for i := range snap {
			if keep(&snap[i]) {
				kept = append(kept, snap[i])
			}
		}
		snap = kept
	}
	if limit > 0 && len(snap) > limit {
		snap = snap[len(snap)-limit:]
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range snap {
		ph := snap[i].Phases()
		rec := traceJSON{
			IOTrace:    snap[i],
			FabricNs:   ph[PhaseFabric],
			QueueNs:    ph[PhaseQueue],
			PacingNs:   ph[PhasePacing],
			DeviceNs:   ph[PhaseDevice],
			CompleteNs: ph[PhaseComplete],
		}
		if err := enc.Encode(&rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}
