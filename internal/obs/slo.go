package obs

import "sync"

// SLO declares one tenant's service objective.
type SLO struct {
	// LatencyTargetNs is the per-IO latency objective: an IO is "good"
	// when it completes successfully within this budget. 0 means
	// success-only (every successful IO is good).
	LatencyTargetNs int64 `json:"latency_target_ns"`
	// LatencyGoal is the fraction of IOs that must be good, e.g. 0.999.
	// The error budget is 1 − LatencyGoal.
	LatencyGoal float64 `json:"latency_goal"`
}

// sloWindowsNs are the burn-rate window widths, ascending, spanning the
// simulated experiments' time scales: 10ms (is the tail burning right
// now), 100ms (one brownout unit), 1s. The classic SRE multi-window alert
// compares a short window (is it burning now?) against a long one (has it
// burned enough to matter?).
var sloWindowsNs = []int64{10_000_000, 100_000_000, 1_000_000_000}

// sloBucketsPerWindow is each burn window's ring resolution.
const sloBucketsPerWindow = 16

// burnBucket is one time slice of good/bad/bytes accounting.
type burnBucket struct{ good, bad, bytes int64 }

// burnWindow is a ring of buckets covering one window width. Rotation is
// O(1) amortized and allocation-free: Observe advances the cursor bucket
// by bucket, zeroing as it goes, and clears the whole ring at once after
// a gap longer than the window.
type burnWindow struct {
	widthNs  int64
	bucketNs int64
	buckets  []burnBucket
	cur      int
	curStart int64
}

func (w *burnWindow) rotate(now int64) {
	steps := (now - w.curStart) / w.bucketNs
	if steps <= 0 {
		return
	}
	if steps >= int64(len(w.buckets)) {
		for i := range w.buckets {
			w.buckets[i] = burnBucket{}
		}
		w.curStart += steps * w.bucketNs
		return
	}
	for ; steps > 0; steps-- {
		w.cur++
		if w.cur == len(w.buckets) {
			w.cur = 0
		}
		w.buckets[w.cur] = burnBucket{}
		w.curStart += w.bucketNs
	}
}

func (w *burnWindow) totals(now int64) (good, bad, bytes int64) {
	w.rotate(now)
	for i := range w.buckets {
		good += w.buckets[i].good
		bad += w.buckets[i].bad
		bytes += w.buckets[i].bytes
	}
	return
}

// SLOTenant tracks one tenant against its objective. All methods run in
// scheduler context (the same single-threaded discipline as histograms);
// collection serializes through the registry GatherLock or the
// RealScheduler lock.
type SLOTenant struct {
	name string
	slo  SLO
	wins []burnWindow

	// Cumulative since the last Reset (the harness resets at end of
	// warmup, so these cover the measured interval).
	good, bad, bytes int64
}

// Observe records one completed IO: ok is transport/device success,
// latNs the end-to-end latency judged against the objective, bytes the
// payload delivered. Allocation-free.
func (t *SLOTenant) Observe(now, latNs int64, ok bool, bytes int) {
	good := ok && (t.slo.LatencyTargetNs <= 0 || latNs <= t.slo.LatencyTargetNs)
	if good {
		t.good++
	} else {
		t.bad++
	}
	t.bytes += int64(bytes)
	for i := range t.wins {
		w := &t.wins[i]
		w.rotate(now)
		b := &w.buckets[w.cur]
		if good {
			b.good++
		} else {
			b.bad++
		}
		b.bytes += int64(bytes)
	}
}

// BurnRate returns the error-budget burn rate over window i at time now:
// the observed bad fraction divided by the budget (1 − goal). 1.0 burns
// the budget exactly at the sustainable rate; values above it exhaust the
// budget early. Returns 0 with no samples in the window.
func (t *SLOTenant) BurnRate(i int, now int64) float64 {
	good, bad, _ := t.wins[i].totals(now)
	total := good + bad
	if total == 0 {
		return 0
	}
	budget := 1 - t.slo.LatencyGoal
	if budget <= 0 {
		budget = 1e-9
	}
	return (float64(bad) / float64(total)) / budget
}

// WindowBandwidthBps returns the delivered bandwidth over window i.
func (t *SLOTenant) WindowBandwidthBps(i int, now int64) float64 {
	_, _, bytes := t.wins[i].totals(now)
	return float64(bytes) * 1e9 / float64(t.wins[i].widthNs)
}

// MetFraction returns the cumulative good fraction since the last Reset
// (1.0 with no samples — an idle tenant has burned nothing).
func (t *SLOTenant) MetFraction() float64 {
	total := t.good + t.bad
	if total == 0 {
		return 1
	}
	return float64(t.good) / float64(total)
}

func (t *SLOTenant) reset(now int64) {
	t.good, t.bad, t.bytes = 0, 0, 0
	for i := range t.wins {
		w := &t.wins[i]
		for j := range w.buckets {
			w.buckets[j] = burnBucket{}
		}
		w.cur = 0
		w.curStart = now
	}
}

// SLOEngine tracks every tenant's objective and correlates burn with the
// shared event log (degrade latches, fail-fast trips, injected faults).
type SLOEngine struct {
	slo    SLO
	events *EventLog

	mu      sync.Mutex
	tenants map[string]*SLOTenant
	order   []*SLOTenant
}

// NewSLOEngine builds an engine holding every tenant to slo; a goal outside
// (0, 1) means 0.999.
func NewSLOEngine(slo SLO) *SLOEngine {
	if slo.LatencyGoal <= 0 || slo.LatencyGoal >= 1 {
		slo.LatencyGoal = 0.999
	}
	return &SLOEngine{slo: slo, tenants: map[string]*SLOTenant{}}
}

// SetEventLog attaches the event log reports correlate against.
func (e *SLOEngine) SetEventLog(l *EventLog) { e.events = l }

// Windows returns the burn-rate window widths, ascending.
func (e *SLOEngine) Windows() []int64 { return sloWindowsNs }

// Tenant returns the tracker for name, registering it on first sight.
// Callers on the completion path should cache the returned pointer — the
// map lookup is not free.
func (e *SLOEngine) Tenant(name string) *SLOTenant {
	e.mu.Lock()
	defer e.mu.Unlock()
	if t, ok := e.tenants[name]; ok {
		return t
	}
	t := &SLOTenant{name: name, slo: e.slo, wins: make([]burnWindow, len(sloWindowsNs))}
	for i, w := range sloWindowsNs {
		t.wins[i] = burnWindow{
			widthNs:  w,
			bucketNs: w / sloBucketsPerWindow,
			buckets:  make([]burnBucket, sloBucketsPerWindow),
		}
	}
	e.tenants[name] = t
	e.order = append(e.order, t)
	return t
}

// Reset restarts measurement for every tenant (end of warmup).
func (e *SLOEngine) Reset(now int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, t := range e.order {
		t.reset(now)
	}
}

// SLOWindowReport is one window's burn state in a report.
type SLOWindowReport struct {
	WindowNs     int64   `json:"window_ns"`
	Good         int64   `json:"good"`
	Bad          int64   `json:"bad"`
	BurnRate     float64 `json:"burn_rate"`
	BandwidthBps float64 `json:"bandwidth_bps"`
}

// SLOTenantReport is one tenant's standing in a report.
type SLOTenantReport struct {
	Tenant      string            `json:"tenant"`
	Objective   SLO               `json:"objective"`
	Good        int64             `json:"good"`
	Bad         int64             `json:"bad"`
	MetFraction float64           `json:"met_fraction"`
	Windows     []SLOWindowReport `json:"windows"`
	Burning     bool              `json:"burning"`
	Correlated  []string          `json:"correlated_events,omitempty"`
}

// SLOReport is the /slo endpoint payload.
type SLOReport struct {
	NowNs     int64             `json:"now_ns"`
	WindowsNs []int64           `json:"windows_ns"`
	Tenants   []SLOTenantReport `json:"tenants"`
	Events    []Event           `json:"events,omitempty"`
}

// Report renders every tenant's burn state at time now, in registration
// order, and correlates burning tenants with events from the attached log
// that fall inside the longest window. Call from scheduler context (or
// under the RealScheduler lock in the live daemon).
func (e *SLOEngine) Report(now int64) SLOReport {
	e.mu.Lock()
	tenants := append([]*SLOTenant(nil), e.order...)
	e.mu.Unlock()

	rep := SLOReport{NowNs: now, WindowsNs: sloWindowsNs}
	var events []Event
	if e.events != nil {
		events = e.events.Snapshot()
		rep.Events = events
	}
	longest := sloWindowsNs[len(sloWindowsNs)-1]
	for _, t := range tenants {
		tr := SLOTenantReport{
			Tenant:      t.name,
			Objective:   t.slo,
			Good:        t.good,
			Bad:         t.bad,
			MetFraction: t.MetFraction(),
		}
		for i := range t.wins {
			w := SLOWindowReport{WindowNs: t.wins[i].widthNs}
			w.Good, w.Bad, _ = t.wins[i].totals(now)
			w.BurnRate = t.BurnRate(i, now)
			w.BandwidthBps = t.WindowBandwidthBps(i, now)
			if w.BurnRate > 1 {
				tr.Burning = true
			}
			tr.Windows = append(tr.Windows, w)
		}
		if tr.Burning {
			tr.Correlated = correlate(events, now-longest)
		}
		rep.Tenants = append(rep.Tenants, tr)
	}
	return rep
}

// correlate returns the distinct event kinds at or after since, in first-
// seen order: the "what else was happening" answer next to a hot burn.
func correlate(events []Event, since int64) []string {
	var kinds []string
	for i := range events {
		if events[i].At < since {
			continue
		}
		dup := false
		for _, k := range kinds {
			if k == events[i].Kind {
				dup = true
				break
			}
		}
		if !dup {
			kinds = append(kinds, events[i].Kind)
		}
	}
	return kinds
}

// Event is one timestamped condition change worth correlating with SLO
// burn: a fault injection, a degrade latch, a fail-fast trip.
type Event struct {
	At     int64  `json:"at_ns"`
	Kind   string `json:"kind"`
	Detail string `json:"detail,omitempty"`
	// Active is true when the condition began and false when it cleared.
	Active bool `json:"active"`
}

// EventLog is a fixed-capacity ring of events with ring's wraparound
// semantics (Total, Snapshot oldest-first). Events are rare (state
// transitions, not per-IO), so a mutex and a small ring suffice.
type EventLog struct{ ring[Event] }

// NewEventLog returns a log holding the last capacity events.
func NewEventLog(capacity int) *EventLog {
	return &EventLog{newRing[Event](capacity)}
}

// Append records one event.
func (l *EventLog) Append(at int64, kind, detail string, active bool) {
	l.ring.Append(Event{At: at, Kind: kind, Detail: detail, Active: active})
}
