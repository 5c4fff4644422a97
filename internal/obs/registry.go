// Package obs is the telemetry layer shared by the discrete-event
// simulator, the benchmark harness, and the live gimbald target: a
// cardinality-bounded metrics registry that reads the counters its
// components keep (plus the stats package's histograms registered as
// instruments), labeled per SSD and per tenant; a per-IO span tracer with
// tail-biased sampling (trace.go, tracer.go); and a per-tenant SLO engine
// with multi-window burn-rate tracking and fault/degrade event correlation
// (slo.go). A Hub (hub.go) bundles the sinks one deployment attaches.
//
// Design rules:
//
//   - A counter belongs to the component that counts. Every layer keeps
//     plain integer fields in the state its pipeline already owns and
//     increments them unconditionally, observed or not; the registry is
//     handed a function that reads them (CounterFunc, GaugeFunc) and calls
//     it at collection time. The datapath carries no instrument pointers
//     and pays nothing for being observed. Only what is pushed by nature —
//     latency histograms, exemplars, trace spans, the event log — is fed
//     from the hot path, behind one nil-checkable observer pointer.
//   - Those plain fields are written in scheduler context only, so reading
//     them is safe only under the same serialization: GatherLock. A
//     registry whose functions read a live pipeline must have GatherLock set
//     to that pipeline's scheduler shard (the live daemon does, one registry
//     per reactor); collection then runs as one more entry into the shard
//     and sees every counter, histogram and gauge of the pipeline at one
//     instant. The simulator gathers only between runs and needs none.
//     Counter — the one pushed, atomic kind — is for counts that have no
//     owning scheduler.
//   - Registration is one map under one lock: the live plane registers per
//     reactor into that reactor's own registry, so nothing contends for it.
//     Label strings are interned so the many instruments of one tenant
//     share one backing array.
//   - Cardinality is bounded per metric name (DefaultMaxSeries): once a
//     name's series budget is exhausted, further label sets collapse into
//     one shared series labeled overflow="true". Bounded memory beats
//     per-series fidelity once cardinality explodes.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"gimbal/internal/stats"
)

// Labels is a preformatted, brace-free Prometheus label list, e.g.
// `ssd="0",tenant="conn1-ns0"`. Build one with L.
type Labels string

// L formats alternating key, value pairs into Labels. Keys should be given
// in a consistent order at every call site so instrument identities match.
func L(kv ...string) Labels {
	if len(kv)%2 != 0 {
		panic("obs: L requires key/value pairs")
	}
	var b strings.Builder
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", kv[i], kv[i+1])
	}
	return Labels(b.String())
}

// Counter is a monotonically increasing atomic counter, for counts with no
// owning scheduler context; a component that has one keeps a plain field
// and registers a CounterFunc over it.
type Counter struct{ v atomic.Int64 }

// Add adds n (n must be nonnegative for Prometheus semantics).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Exemplar links one exported metric family to a captured trace span, so a
// quantile in a scrape can be chased to the concrete IO behind it.
type Exemplar struct {
	Value  float64 // observed value (nanoseconds for latency histograms)
	Span   uint64  // Tracer span id of the captured IO
	Tenant string
	At     int64 // scheduler timestamp of the observation
}

// ExemplarSlot holds the most recent exemplar for one instrument. It is a
// mutex-guarded value, not a pointer swap, so setting an exemplar on the
// capture path allocates nothing.
type ExemplarSlot struct {
	mu  sync.Mutex
	ex  Exemplar
	set bool
}

// Set stores ex as the current exemplar.
func (s *ExemplarSlot) Set(ex Exemplar) {
	s.mu.Lock()
	s.ex, s.set = ex, true
	s.mu.Unlock()
}

// Load returns the current exemplar and whether one has been set.
func (s *ExemplarSlot) Load() (Exemplar, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ex, s.set
}

// kind discriminates instrument types for export.
type kind int

const (
	kindCounter kind = iota
	kindCounterFunc
	kindGaugeFunc
	kindHistogram
)

// typ is the kind's Prometheus TYPE.
func (k kind) typ() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindHistogram:
		return "summary"
	}
	return "gauge"
}

// instrument is one registered metric.
type instrument struct {
	name   string
	labels Labels
	kind   kind

	counter *Counter
	cfns    []func() int64 // summed: one source, or all an overflow series absorbed
	fn      func() float64
	hist    *stats.Histogram
	folds   []func() // run before hist is read: its recorders' staged samples
	ex      *ExemplarSlot

	// Export-name cache, built lazily on first collection (under gatherMu)
	// so steady-state scrapes of a histogram allocate nothing.
	qlabels   [3]Labels
	sumName   string
	countName string
}

// histQuantiles are the summary quantiles every histogram exports.
var histQuantiles = [3]struct {
	tag string
	q   float64
}{{"0.5", 0.5}, {"0.99", 0.99}, {"0.999", 0.999}}

// exportNames fills the instrument's lazily-built export-name cache.
// Callers must hold the registry's gatherMu (collection is serialized, so
// the cache is never built concurrently).
func (in *instrument) exportNames() {
	if in.sumName != "" {
		return
	}
	for i, q := range histQuantiles {
		lb := in.labels
		if lb != "" {
			lb += ","
		}
		in.qlabels[i] = lb + Labels(`quantile="`+q.tag+`"`)
	}
	in.sumName = in.name + "_sum"
	in.countName = in.name + "_count"
}

// DefaultMaxSeries is the per-metric-name series budget before overflow
// bucketing kicks in: generous enough for a 100k-tenant label set, small
// enough to bound a runaway label leak.
const DefaultMaxSeries = 1 << 17

// Registry holds the instruments of one system (one simulation run or one
// daemon process). Instrument registration is idempotent on (name, labels).
type Registry struct {
	// GatherLock, when set, is held across Gather/WritePrometheus/Snapshot
	// so collection serializes with the scheduler context that writes what
	// the counter and gauge functions read and records the histograms. The
	// live daemon sets it to the pipeline's RealScheduler shard. It must
	// not be held by the caller.
	GatherLock sync.Locker

	mu        sync.Mutex
	by        map[string]*instrument // id → instrument, overflowed ids excepted
	order     []*instrument
	help      map[string]string
	interned  map[Labels]Labels
	series    map[string]int
	overflow  map[string]*instrument
	maxSeries int

	// gatherMu serializes collection so the sample and instrument scratch
	// buffers can be reused across scrapes.
	gatherMu   sync.Mutex
	scratch    []Sample
	insScratch []*instrument
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		by:       map[string]*instrument{},
		help:     map[string]string{},
		interned: map[Labels]Labels{},
		series:   map[string]int{},
		overflow: map[string]*instrument{},
	}
}

// SetMaxSeries overrides the per-metric-name series budget
// (DefaultMaxSeries). n must be positive; call before traffic.
func (r *Registry) SetMaxSeries(n int) {
	if n <= 0 {
		panic("obs: SetMaxSeries requires a positive budget")
	}
	r.mu.Lock()
	r.maxSeries = n
	r.mu.Unlock()
}

// internLocked returns a canonical copy of l: every instrument registered
// with an equal label set shares one backing string.
func (r *Registry) internLocked(l Labels) Labels {
	if l == "" {
		return l
	}
	if v, ok := r.interned[l]; ok {
		return v
	}
	r.interned[l] = l
	return l
}

// overflowKey identifies one (name, kind) overflow series.
func overflowKey(name string, k kind) string {
	return name + "\x00" + strconv.Itoa(int(k))
}

// overflowLocked returns the shared overflow instrument for a metric name
// whose series budget is exhausted. All overflowed label sets of one name
// and kind collapse into a single series labeled overflow="true": counters
// keep aggregate totals, histograms merge samples, gauge functions degrade
// to last-writer-wins.
func (r *Registry) overflowLocked(name string, k kind, mk func() *instrument) *instrument {
	key := overflowKey(name, k)
	if in, ok := r.overflow[key]; ok {
		return in
	}
	in := mk()
	in.name, in.labels, in.kind = name, Labels(`overflow="true"`), k
	r.overflow[key] = in
	r.order = append(r.order, in)
	return in
}

// lookup returns the existing instrument or registers a new one built by
// mk. It panics when (name, labels) is already registered with a different
// kind — instrument identities are code, not input. Overflowed identities
// are deliberately not kept in the map (that map growing without bound is
// exactly what the budget prevents); callers are expected to cache the
// returned instrument pointer.
func (r *Registry) lookup(name string, labels Labels, k kind, mk func() *instrument) *instrument {
	id := name + "{" + string(labels) + "}"
	r.mu.Lock()
	defer r.mu.Unlock()
	if in, ok := r.by[id]; ok {
		if in.kind != k {
			panic("obs: " + id + " re-registered with a different kind")
		}
		return in
	}
	budget := r.maxSeries
	if budget == 0 {
		budget = DefaultMaxSeries
	}
	if r.series[name] >= budget {
		return r.overflowLocked(name, k, mk)
	}
	r.series[name]++
	in := mk()
	in.name, in.labels, in.kind = name, r.internLocked(labels), k
	r.order = append(r.order, in)
	r.by[id] = in
	return in
}

// Counter returns the counter registered under (name, labels).
func (r *Registry) Counter(name string, labels Labels) *Counter {
	return r.lookup(name, labels, kindCounter, func() *instrument {
		return &instrument{counter: &Counter{}}
	}).counter
}

// CounterFunc registers fn as a counter sampled at collection time (under
// GatherLock): the component keeps the count in a plain field of its own
// and the hot path never sees the registry. Registering again under the
// same identity adds a source — the series is the sum of its functions,
// as two holders of one Counter add into it — which is also how the
// overflow series keeps the total of everything it absorbed.
func (r *Registry) CounterFunc(name string, labels Labels, fn func() int64) {
	in := r.lookup(name, labels, kindCounterFunc, func() *instrument {
		return &instrument{}
	})
	r.mu.Lock()
	in.cfns = append(in.cfns, fn)
	r.mu.Unlock()
}

// GaugeFunc registers fn as a gauge sampled at collection time (under
// GatherLock), so exposing internal state costs nothing on the hot path.
// Re-registration replaces the function.
func (r *Registry) GaugeFunc(name string, labels Labels, fn func() float64) {
	in := r.lookup(name, labels, kindGaugeFunc, func() *instrument {
		return &instrument{}
	})
	r.mu.Lock()
	in.fn = fn
	r.mu.Unlock()
}

// Histogram returns a registry-owned stats.Histogram exported as a
// Prometheus summary (quantiles + _sum + _count). The histogram itself is
// not thread-safe: record only from scheduler context, which GatherLock
// serializes collection against.
func (r *Registry) Histogram(name string, labels Labels) *stats.Histogram {
	return r.lookup(name, labels, kindHistogram, func() *instrument {
		return &instrument{hist: stats.NewHistogram()}
	}).hist
}

// StagedHistogram is Histogram for a recorder that stages its samples and
// folds them into the histogram in batches: every collection runs fold
// before it reads the histogram, so an export never misses a staged
// sample. fold runs under GatherLock and gatherMu, as the recorder would
// record; a histogram may have several (each registration adds one).
func (r *Registry) StagedHistogram(name string, labels Labels, fold func()) *stats.Histogram {
	in := r.lookup(name, labels, kindHistogram, func() *instrument {
		return &instrument{hist: stats.NewHistogram()}
	})
	r.mu.Lock()
	in.folds = append(in.folds, fold)
	r.mu.Unlock()
	return in.hist
}

// ExemplarSlot returns the exemplar slot attached to the histogram
// registered under (name, labels), creating histogram and slot as needed.
// The slot's exemplar is exported alongside the family by
// WritePrometheus.
func (r *Registry) ExemplarSlot(name string, labels Labels) *ExemplarSlot {
	in := r.lookup(name, labels, kindHistogram, func() *instrument {
		return &instrument{hist: stats.NewHistogram()}
	})
	r.mu.Lock()
	if in.ex == nil {
		in.ex = &ExemplarSlot{}
	}
	ex := in.ex
	r.mu.Unlock()
	return ex
}

// Help sets the HELP text exported for a metric name.
func (r *Registry) Help(name, text string) {
	r.mu.Lock()
	if r.help == nil {
		r.help = map[string]string{}
	}
	r.help[name] = text
	r.mu.Unlock()
}

// Sample is one collected value.
type Sample struct {
	Name   string
	Labels Labels
	Value  float64
}

// instruments clones the registration-order instrument list into the
// reusable scratch so collection can run without holding r.mu (gauge
// funcs may take arbitrary time). Callers must hold gatherMu.
func (r *Registry) instruments() []*instrument {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.insScratch = append(r.insScratch[:0], r.order...)
	return r.insScratch
}

// Gather flattens every instrument into samples in registration order.
// Histograms contribute quantile samples plus _sum and _count.
//
// The returned slice is a scratch buffer reused by the next collection
// call (Gather, Snapshot, or WritePrometheus): consume or copy it before
// collecting again. Steady-state scrapes allocate nothing.
func (r *Registry) Gather() []Sample {
	if r.GatherLock != nil {
		r.GatherLock.Lock()
		defer r.GatherLock.Unlock()
	}
	r.gatherMu.Lock()
	defer r.gatherMu.Unlock()
	return r.gather()
}

func (r *Registry) gather() []Sample {
	out := r.scratch[:0]
	for _, in := range r.instruments() {
		out = in.appendSamples(out)
	}
	r.scratch = out
	return out
}

// appendSamples appends the instrument's current samples: one for a
// counter or gauge, the quantiles plus _sum and _count for a histogram.
// It is the one place that decides what an instrument exports; Gather and
// the text exposition both walk it. Callers hold gatherMu (and GatherLock).
func (in *instrument) appendSamples(out []Sample) []Sample {
	switch in.kind {
	case kindCounter:
		return append(out, Sample{in.name, in.labels, float64(in.counter.Load())})
	case kindCounterFunc:
		var n int64
		for _, fn := range in.cfns {
			n += fn()
		}
		return append(out, Sample{in.name, in.labels, float64(n)})
	case kindGaugeFunc:
		return append(out, Sample{in.name, in.labels, in.fn()})
	}
	for _, fold := range in.folds {
		fold()
	}
	in.exportNames()
	h := in.hist
	for i, q := range histQuantiles {
		out = append(out, Sample{in.name, in.qlabels[i], float64(h.Quantile(q.q))})
	}
	out = append(out, Sample{in.sumName, in.labels, h.Mean() * float64(h.Count())})
	return append(out, Sample{in.countName, in.labels, float64(h.Count())})
}

// Snapshot returns every sample keyed by `name{labels}`, for JSON export
// and the bench harness's observability block.
func (r *Registry) Snapshot() map[string]float64 {
	out := map[string]float64{}
	for _, s := range r.Gather() {
		key := s.Name
		if s.Labels != "" {
			key += "{" + string(s.Labels) + "}"
		}
		out[key] = s.Value
	}
	return out
}

// SumMetric sums a metric across all label sets in a Snapshot map, in key
// order: a float sum in map order could differ in its last bit call to call.
func SumMetric(snap map[string]float64, name string) float64 {
	var keys []string
	for k := range snap {
		if k == name || strings.HasPrefix(k, name+"{") {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var sum float64
	for _, k := range keys {
		sum += snap[k]
	}
	return sum
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format, grouped by metric family with TYPE (and optional HELP) headers.
// Histogram families carry their exemplar, when set, as a trailing
// `# EXEMPLAR` comment line (an exposition-format extension: comments are
// ignored by standard parsers).
func (r *Registry) WritePrometheus(w io.Writer) error {
	return NewGroup(r).WritePrometheus(w)
}

// writeSamples renders one instrument's sample lines (and exemplar) into
// w. Callers hold the registry's gatherMu: the sample scratch is shared
// with Gather.
func (r *Registry) writeSamples(w io.Writer, in *instrument) error {
	r.scratch = in.appendSamples(r.scratch[:0])
	for _, s := range r.scratch {
		var err error
		if s.Labels == "" {
			_, err = fmt.Fprintf(w, "%s %s\n", s.Name, formatValue(s.Value))
		} else {
			_, err = fmt.Fprintf(w, "%s{%s} %s\n", s.Name, s.Labels, formatValue(s.Value))
		}
		if err != nil {
			return err
		}
	}
	if in.ex != nil {
		if ex, ok := in.ex.Load(); ok {
			_, err := fmt.Fprintf(w, "# EXEMPLAR %s{%s} {span=\"%d\",tenant=%q} %s %d\n",
				in.name, in.labels, ex.Span, ex.Tenant, formatValue(ex.Value), ex.At)
			return err
		}
	}
	return nil
}

// formatValue renders a float the way Prometheus clients do: integers
// without a decimal point, everything else in shortest form.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
