package obs

import (
	"bufio"
	"encoding/json"
	"io"

	"gimbal/internal/nvme"
)

// IOTrace is the lifecycle record of one IO through a target pipeline,
// one stamp per layer it crossed:
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
// is a valid time, never "unset".
type IOTrace struct {
	Span   uint64 `json:"span,omitempty"` // tracer-assigned capture id
	SSD    int    `json:"ssd"`
	Tenant string `json:"tenant"`
	Op     string `json:"op"`
	Size   int    `json:"size"`

	Origin  int64 `json:"origin_ns"`
	Arrival int64 `json:"arrival_ns"`
	Admit   int64 `json:"admit_ns"`
	Submit  int64 `json:"submit_ns"`
	DevDone int64 `json:"dev_done_ns"`
	Done    int64 `json:"done_ns"`

	VslotNs int64 `json:"vslot_ns"`
	GCNs    int64 `json:"gc_ns"`
}

// Stamps copies io's timeline, its completion handed back at done, into a
// trace; the caller names the IO (SSD, Tenant, Op, Size) if it keeps it.
func Stamps(io *nvme.IO, done int64) IOTrace {
	return IOTrace{
		Origin:  io.Origin,
		Arrival: io.Arrival,
		Admit:   io.Admit,
		Submit:  io.DevSubmit,
		DevDone: io.DevDone,
		Done:    done,
		VslotNs: io.VslotWait,
		GCNs:    io.GCWait,
	}
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

// Phases is the one definition of the decomposition: the adjacent
// differences of the timeline, with the vslot wait split out of
// arrival → admit and the GC stall out of submit → device done. They sum
// to Total by construction, and a layer that stamps in order keeps every
// one non-negative (TestPhaseLaw checks both on every scheme).
func (t *IOTrace) Phases() [numPhases]int64 {
	return [numPhases]int64{
		PhaseFabric:   t.Arrival - t.Origin,
		PhaseQueue:    t.Admit - t.Arrival - t.VslotNs,
		PhaseVslot:    t.VslotNs,
		PhasePacing:   t.Submit - t.Admit,
		PhaseDevice:   t.DevDone - t.Submit - t.GCNs,
		PhaseGC:       t.GCNs,
		PhaseComplete: t.Done - t.DevDone,
	}
}

// Total is the IO's whole residency behind the transport: origin → done.
func (t *IOTrace) Total() int64 { return t.Done - t.Origin }

// Phase returns the named decomposed span (see TracePhases); ok is false
// for an unknown name.
func (t *IOTrace) Phase(name string) (ns int64, ok bool) {
	for i, n := range TracePhases {
		if n == name {
			return t.Phases()[i], true
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
