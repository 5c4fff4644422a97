// Package workload provides the synthetic load generators of the
// evaluation: fio-style closed/open-loop block workers (IO size, read/write
// mix, random/sequential, queue depth, rate caps, priority tags), Zipfian
// and latest key distributions, the YCSB A/B/C/D/F drivers used by the
// key-value store experiments, and the population-scale scenario engine
// (Scenario: 100k+ registered tenants with Zipf activity, Poisson open-loop
// arrivals, and tenant join/leave churn).
package workload

import (
	"gimbal/internal/nvme"
	"gimbal/internal/sim"
	"gimbal/internal/stats"
)

// Target accepts IOs and eventually invokes io.Done. Implementations: the
// direct scheduler adapter below, and the fabric initiator session (which
// adds the credit gate and network).
type Target interface {
	Submit(io *nvme.IO)
}

// SchedTarget adapts an nvme.Scheduler as a Target (no transport, no credit
// gate) for unit tests and switch-level experiments.
type SchedTarget struct{ S nvme.Scheduler }

// Submit implements Target.
func (t SchedTarget) Submit(io *nvme.IO) { t.S.Enqueue(io) }

// Profile describes one fio-like stream.
type Profile struct {
	Name      string
	ReadRatio float64 // 1 = read-only, 0 = write-only
	IOSize    int
	QD        int  // concurrent IOs (closed loop)
	Seq       bool // sequential vs uniform random offsets

	// Zipf skews random offsets with a Zipfian(theta) popularity law over
	// the span's IO slots, scattered across the address range (0 =
	// uniform, the default; meaningful values are in (0,1), e.g. 0.99).
	// Ignored for sequential streams.
	Zipf     float64
	Priority nvme.Priority

	// RateLimitBps caps the stream's submission rate (0 = unlimited);
	// used by Fig 9's rate-limited workers.
	RateLimitBps int64

	// MaxConsecutiveErrs stops the worker after this many back-to-back
	// error completions (timeouts, device failure, aborts), modeling an
	// application that gives up on a dead path. 0 = never stop on errors.
	MaxConsecutiveErrs int

	// Span restricts offsets to [0, Span) (0 = whole device).
	Span int64
}

// Worker drives one Profile against a Target inside a simulation loop,
// recording per-class latency histograms and throughput.
type Worker struct {
	loop   *sim.Loop
	rng    *sim.RNG
	p      Profile
	tenant *nvme.Tenant
	target Target

	cursor  int64
	stopAt  int64
	paceAt  int64 // earliest next submission under the rate cap
	stopped bool

	// Measurement state (reset after warmup).
	ReadLat  *stats.Histogram
	WriteLat *stats.Histogram
	Meter    *stats.Meter
	inflight int

	// Error accounting. okIOs/errIOs count completions since the last
	// stats reset; consecErrs drives the give-up logic.
	okIOs      int64
	errIOs     int64
	consecErrs int
	failed     bool
	lastErr    nvme.Status

	// OnDone, if set, observes every completion (harness time series).
	OnDone func(io *nvme.IO, cpl nvme.Completion)

	// submitFn and onDoneFn are cached once so the steady-state submit
	// loop never rebuilds a closure or method value.
	submitFn func()
	onDoneFn func(io *nvme.IO, cpl nvme.Completion)

	// ioFree recycles completed IO structs: a closed-loop worker has at
	// most QD outstanding, so after warmup every submission reuses one.
	ioFree []*nvme.IO

	// zipf generates skewed offsets when the profile asks for them; built
	// lazily in Start (the span may not be known at construction).
	zipf *Zipf
}

// NewWorker builds a worker. p.Span must be a positive multiple of IOSize.
func NewWorker(loop *sim.Loop, rng *sim.RNG, p Profile, tenant *nvme.Tenant, target Target) *Worker {
	w := &Worker{
		loop:     loop,
		rng:      rng,
		p:        p,
		tenant:   tenant,
		target:   target,
		ReadLat:  stats.NewHistogram(),
		WriteLat: stats.NewHistogram(),
		Meter:    stats.NewMeter(loop.Now()),
	}
	w.submitFn = w.trySubmit
	w.onDoneFn = w.onDone
	return w
}

// Tenant returns the worker's tenant identity.
func (w *Worker) Tenant() *nvme.Tenant { return w.tenant }

// Profile returns the worker's profile.
func (w *Worker) Profile() Profile { return w.p }

// Start begins the closed loop: QD submissions now, one replacement per
// completion, until stopAt (then drains naturally).
func (w *Worker) Start(stopAt int64) {
	if w.p.Span <= 0 || w.p.IOSize <= 0 || w.p.QD <= 0 {
		panic("workload: profile missing span/size/qd")
	}
	w.stopAt = stopAt
	w.paceAt = w.loop.Now()
	if w.p.Zipf > 0 && !w.p.Seq && w.zipf == nil {
		w.zipf = NewZipf(w.rng, uint64(w.p.Span/int64(w.p.IOSize)), w.p.Zipf)
	}
	for i := 0; i < w.p.QD; i++ {
		w.trySubmit()
	}
}

// Stop ends submission immediately (dynamic workloads remove workers).
func (w *Worker) Stop() { w.stopped = true }

// ResetStats restarts measurement (end of warmup).
func (w *Worker) ResetStats() {
	w.ReadLat.Reset()
	w.WriteLat.Reset()
	w.Meter.Reset(w.loop.Now())
	w.okIOs, w.errIOs = 0, 0
}

// Inflight returns the number of outstanding IOs.
func (w *Worker) Inflight() int { return w.inflight }

func (w *Worker) trySubmit() {
	now := w.loop.Now()
	if w.stopped || now >= w.stopAt {
		return
	}
	if w.p.RateLimitBps > 0 && now < w.paceAt {
		// Open-loop pacing: defer this submission slot.
		w.loop.At(w.paceAt, w.submitFn)
		return
	}
	if w.p.RateLimitBps > 0 {
		w.paceAt = max64(w.paceAt, now) + int64(w.p.IOSize)*1e9/w.p.RateLimitBps
	}

	op := nvme.OpRead
	if w.p.ReadRatio < 1 && (w.p.ReadRatio == 0 || w.rng.Float64() >= w.p.ReadRatio) {
		op = nvme.OpWrite
	}
	var off int64
	if w.p.Seq {
		off = w.cursor
		w.cursor += int64(w.p.IOSize)
		if w.cursor+int64(w.p.IOSize) > w.p.Span {
			w.cursor = 0
		}
	} else if w.zipf != nil {
		// Skewed popularity, scattered so hot slots are not adjacent.
		off = int64(w.zipf.ScatteredNext()) * int64(w.p.IOSize)
	} else {
		slots := w.p.Span / int64(w.p.IOSize)
		off = w.rng.Int63n(slots) * int64(w.p.IOSize)
	}
	var io *nvme.IO
	if n := len(w.ioFree); n > 0 {
		io = w.ioFree[n-1]
		w.ioFree = w.ioFree[:n-1]
		*io = nvme.IO{}
	} else {
		io = &nvme.IO{}
	}
	io.Op = op
	io.Offset = off
	io.Size = w.p.IOSize
	io.Priority = w.p.Priority
	io.Tenant = w.tenant
	io.Issued = now
	io.Done = w.onDoneFn
	w.inflight++
	w.target.Submit(io)
}

func (w *Worker) onDone(io *nvme.IO, cpl nvme.Completion) {
	w.inflight--
	if cpl.Status == nvme.StatusOK {
		// Only successful completions count toward goodput and latency;
		// timeouts and aborts would otherwise inflate both.
		lat := w.loop.Now() - io.Issued
		if io.Op.IsWrite() {
			w.WriteLat.Record(lat)
		} else {
			w.ReadLat.Record(lat)
		}
		w.Meter.Add(int64(io.Size))
		w.okIOs++
		w.consecErrs = 0
	} else {
		w.errIOs++
		w.lastErr = cpl.Status
		w.consecErrs++
		if w.p.MaxConsecutiveErrs > 0 && w.consecErrs >= w.p.MaxConsecutiveErrs {
			w.failed = true
			w.stopped = true
		}
	}
	if w.OnDone != nil {
		w.OnDone(io, cpl)
	}
	// The IO is dead once every completion observer has run: no layer
	// retains it past Done (queues drop entries on dispatch, the submitter
	// owns the embedded request only until reqDone), so the next
	// submission can reuse it.
	w.ioFree = append(w.ioFree, io)
	w.trySubmit()
}

// OKIOs returns successful completions since the last stats reset.
func (w *Worker) OKIOs() int64 { return w.okIOs }

// Errors returns error completions since the last stats reset.
func (w *Worker) Errors() int64 { return w.errIOs }

// Failed reports whether the worker gave up on consecutive errors, and the
// status that tripped it.
func (w *Worker) Failed() (nvme.Status, bool) { return w.lastErr, w.failed }

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// BandwidthMBps returns the worker's measured bandwidth since the last
// stats reset.
func (w *Worker) BandwidthMBps() float64 { return w.Meter.BandwidthMBps(w.loop.Now()) }

// Stopped reports whether Stop was called or the stop time passed.
func (w *Worker) Stopped() bool { return w.stopped || w.loop.Now() >= w.stopAt }
