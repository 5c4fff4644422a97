package main

import (
	"math"
	"time"

	"gimbal/internal/sim"
)

// layer names one module of the repository as the traced pass sees it:
// the code between two public seams the benchmark wraps.
type layer int

const (
	layerSim      layer = iota // sim.Loop: heap, dispatch (root span of every Run)
	layerWorkload              // workload.Worker
	layerTarget                // fabric.Session + fabric.Target + the scheduler (core or vanilla)
	layerTier                  // tier.Device
	layerFault                 // fault.Device
	layerSSD                   // ssd.SSD (NAND + FTL model)
	layerNullDev               // ssd.Null
	numLayers
)

var layerNames = [numLayers]string{"sim", "workload", "target", "tier", "fault", "ssd", "nulldev"}

func (l layer) String() string { return layerNames[l] }

// rawSpan is one span as written to trace-<workload>.json.
type rawSpan struct {
	ID      int64  `json:"id"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int64  `json:"parent"`   // enclosing span (0 = none)
	SchedBy int64  `json:"sched_by"` // span that scheduled this loop callback (0 = called directly)
	IO      int64  `json:"io"`       // request the span worked for (0 = none/unknown)
}

const maxRawSpans = 10_000

type frame struct {
	l       layer
	start   int64
	childNs int64
	id      int64
	sched   int64
	io      int64
}

// recorder is a span stack for the single simulator thread. A span's self
// time is its duration minus the part its children cover; per-layer self
// times therefore sum to the duration of the root spans exactly.
type recorder struct {
	now    func() int64
	stack  []frame
	nextID int64

	selfNs   [numLayers]int64
	spans    [numLayers]int64
	children [numLayers]int64 // spans opened directly under a span of the layer
	rootNs   int64            // total duration of depth-0 spans

	raw []rawSpan
}

func newRecorder() *recorder {
	epoch := time.Now()
	return &recorder{now: func() int64 { return int64(time.Since(epoch)) }}
}

// push opens a span of layer l as a child of the current span. io names the
// request it works for; 0 inherits the parent's.
func (r *recorder) push(l layer, io int64) { r.pushSched(l, io, 0) }

func (r *recorder) pushSched(l layer, io, schedBy int64) {
	if io == 0 && len(r.stack) > 0 {
		io = r.stack[len(r.stack)-1].io
	}
	r.nextID++
	r.stack = append(r.stack, frame{l: l, start: r.now(), id: r.nextID, sched: schedBy, io: io})
}

// pop closes the current span.
func (r *recorder) pop() {
	end := r.now()
	n := len(r.stack) - 1
	f := r.stack[n]
	r.stack = r.stack[:n]
	dur := end - f.start
	r.selfNs[f.l] += dur - f.childNs
	r.spans[f.l]++
	var parent int64
	if n > 0 {
		r.stack[n-1].childNs += dur
		r.children[r.stack[n-1].l]++
		parent = r.stack[n-1].id
	} else {
		r.rootNs += dur
	}
	if len(r.raw) < maxRawSpans {
		r.raw = append(r.raw, rawSpan{ID: f.id, Name: f.l.String(), StartNs: f.start, EndNs: end,
			Parent: parent, SchedBy: f.sched, IO: f.io})
	}
}

// current returns the id and request of the open span (0, 0 when idle).
func (r *recorder) current() (id, io int64) {
	if n := len(r.stack); n > 0 {
		return r.stack[n-1].id, r.stack[n-1].io
	}
	return 0, 0
}

// reset drops the aggregates (end of warm-up); raw spans keep accumulating.
func (r *recorder) reset() {
	r.selfNs = [numLayers]int64{}
	r.spans = [numLayers]int64{}
	r.children = [numLayers]int64{}
	r.rootNs = 0
}

// spanCost measures what the recorder itself adds to a measured span: in,
// the nanoseconds between a span's own two clock reads when it does
// nothing, and out, the nanoseconds one child span adds to its parent's
// self time (the rest of push and pop).
func spanCost() (in, out float64) {
	const n = 200_000
	r := newRecorder()
	r.push(layerSim, 0)
	for i := 0; i < n; i++ {
		r.push(layerTarget, 0)
		r.pop()
	}
	r.pop()
	return float64(r.selfNs[layerTarget]) / n, float64(r.selfNs[layerSim]) / n
}

// netSelfNs is a layer's self time less the recorder's own calibrated
// cost: every span of the layer pays `in` once, and every span opened
// directly under one adds `out`.
func (r *recorder) netSelfNs(l layer, in, out float64) float64 {
	net := float64(r.selfNs[l]) - float64(r.spans[l])*in - float64(r.children[l])*out
	return math.Max(net, 0)
}

// tagSched is a sim.Scheduler handed to one layer's constructor. Every
// callback the layer schedules runs inside a span of that layer, so loop
// dispatched work is charged to the layer that asked for it, and the
// schedule calls are counted (events per IO is exact and repeats).
type tagSched struct {
	loop   *sim.Loop
	rec    *recorder
	l      layer
	events int64
	free   []*tagEvent
}

type tagEvent struct {
	s     *tagSched
	fn    func()
	sched int64
	io    int64
	run   func()
}

func newTagSched(loop *sim.Loop, rec *recorder, l layer) *tagSched {
	return &tagSched{loop: loop, rec: rec, l: l}
}

func (s *tagSched) Now() int64 { return s.loop.Now() }

func (s *tagSched) wrap(fn func()) func() {
	var ev *tagEvent
	if n := len(s.free); n > 0 {
		ev = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		ev = &tagEvent{s: s}
		ev.run = ev.fire
	}
	ev.fn = fn
	ev.sched, ev.io = s.rec.current()
	s.events++
	return ev.run
}

// fire runs the wrapped callback inside a span. The event is recycled
// first, as the loop recycles its slot, so a self-rescheduling callback
// reuses it. A cancelled event is never fired and is left to the GC.
func (ev *tagEvent) fire() {
	s, fn, sched, io := ev.s, ev.fn, ev.sched, ev.io
	ev.fn = nil
	s.free = append(s.free, ev)
	s.rec.pushSched(s.l, io, sched)
	fn()
	s.rec.pop()
}

func (s *tagSched) At(t int64, fn func()) sim.Timer { return s.loop.At(t, s.wrap(fn)) }

func (s *tagSched) After(d int64, fn func()) sim.Timer { return s.loop.After(d, s.wrap(fn)) }
