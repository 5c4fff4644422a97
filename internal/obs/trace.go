package obs

import (
	"bufio"
	"encoding/json"
	"io"
)

// IOTrace is the lifecycle record of one IO through a switch pipeline:
//
//	Origin   — client-side send (fabric session; 0 when the IO entered
//	           the switch directly, with no transport in front of it)
//	Arrival  — target ingress (scheduler Enqueue)
//	Admit    — first DRR dispatch attempt (the IO won its fairness round)
//	Submit   — submission to the NVMe device (token pacing satisfied)
//	DevDone  — device completion
//	Done     — completion capsule handed back toward the client
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
// live daemon traces in wall-clock nanoseconds since process start.
type IOTrace struct {
	Span   uint64 `json:"span,omitempty"` // tracer-assigned capture id
	SSD    int    `json:"ssd"`
	Tenant string `json:"tenant"`
	Op     string `json:"op"`
	Size   int    `json:"size"`

	Origin  int64 `json:"origin_ns,omitempty"`
	Arrival int64 `json:"arrival_ns"`
	Admit   int64 `json:"admit_ns"`
	Submit  int64 `json:"submit_ns"`
	DevDone int64 `json:"dev_done_ns"`
	Done    int64 `json:"done_ns"`

	VslotNs int64 `json:"vslot_ns"`
	GCNs    int64 `json:"gc_ns"`

	// TierNs is the device span attributed to an interposed fast tier:
	// the whole submit → device-done time when the tier served the IO
	// without touching NAND, 0 otherwise. The "device" phase then reads
	// as NAND service time.
	TierNs int64 `json:"tier_ns,omitempty"`
}

// FabricDelay is the transport time from client send to target ingress
// (origin → arrival). Zero when the IO has no transport in front of it.
func (t *IOTrace) FabricDelay() int64 {
	if t.Origin == 0 || t.Origin > t.Arrival {
		return 0
	}
	return t.Arrival - t.Origin
}

// QueueDelay is the time spent queued behind the DRR fairness rounds
// (arrival → admit) net of the virtual-slot wait, clamped at zero.
func (t *IOTrace) QueueDelay() int64 {
	d := t.Admit - t.Arrival - t.VslotNs
	if d < 0 {
		return 0
	}
	return d
}

// VslotWait is the time the IO's tenant spent closed out of its virtual
// slots (congestion-control clamp) while this IO waited.
func (t *IOTrace) VslotWait() int64 { return t.VslotNs }

// PacingStall is the time spent admitted but waiting for rate-pacer tokens
// (admit → device submit).
func (t *IOTrace) PacingStall() int64 { return t.Submit - t.Admit }

// DeviceLatency is the device service time (submit → device done) net of
// the GC-attributed stall and any fast-tier-served span, clamped at zero.
func (t *IOTrace) DeviceLatency() int64 {
	d := t.DevDone - t.Submit - t.GCNs - t.TierNs
	if d < 0 {
		return 0
	}
	return d
}

// GCStall is the device-side wait attributed to garbage collection.
func (t *IOTrace) GCStall() int64 { return t.GCNs }

// TierServe is the device span served by an interposed fast tier.
func (t *IOTrace) TierServe() int64 { return t.TierNs }

// CompleteDelay is the target-side completion processing time (device done
// → completion capsule sent). Zero under the discrete-event clock.
func (t *IOTrace) CompleteDelay() int64 { return t.Done - t.DevDone }

// Total is the switch-visible residency (arrival → done) plus the fabric
// leg when the IO has one.
func (t *IOTrace) Total() int64 { return t.Done - t.Arrival + t.FabricDelay() }

// TracePhases names the decomposed spans in pipeline order; the names are
// the values accepted by the /trace?phase= filter and the columns of the
// slo-attrib attribution table.
var TracePhases = []string{"fabric", "queue", "vslot", "pacing", "device", "tier", "gc", "complete"}

// Phase returns the named decomposed span (see TracePhases); ok is false
// for an unknown name.
func (t *IOTrace) Phase(name string) (ns int64, ok bool) {
	switch name {
	case "fabric":
		return t.FabricDelay(), true
	case "queue":
		return t.QueueDelay(), true
	case "vslot":
		return t.VslotWait(), true
	case "pacing":
		return t.PacingStall(), true
	case "device":
		return t.DeviceLatency(), true
	case "tier":
		return t.TierServe(), true
	case "gc":
		return t.GCStall(), true
	case "complete":
		return t.CompleteDelay(), true
	}
	return 0, false
}

// DominantPhase names the longest decomposed span, earliest pipeline stage
// winning ties — the one-word answer to "where did this IO's time go?".
func (t *IOTrace) DominantPhase() string {
	best, bestNs := TracePhases[0], int64(-1)
	for _, name := range TracePhases {
		ns, _ := t.Phase(name)
		if ns > bestNs {
			best, bestNs = name, ns
		}
	}
	return best
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
		t := &snap[i]
		rec := traceJSON{
			IOTrace:    *t,
			FabricNs:   t.FabricDelay(),
			QueueNs:    t.QueueDelay(),
			PacingNs:   t.PacingStall(),
			DeviceNs:   t.DeviceLatency(),
			CompleteNs: t.CompleteDelay(),
		}
		if err := enc.Encode(&rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}
