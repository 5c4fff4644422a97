package bench

import (
	"fmt"
	"strconv"

	"gimbal/internal/core"
	"gimbal/internal/fabric"
	"gimbal/internal/nvme"
	"gimbal/internal/sim"
	"gimbal/internal/ssd"
	"gimbal/internal/stats"
	"gimbal/internal/volume"
)

func init() {
	register("volume-churn", "Volume control plane under churn: capacity accounting, COW amplification, per-class fairness", runVolumeChurn)
}

const volChurnClasses = "gold=8,silver=4,besteffort=1"

// swTarget adapts one Gimbal switch to the volume layer's Target: every
// IO routed through it is stamped with the carrying tenant, so COW copy
// traffic a write triggers is charged to the class that caused it.
type swTarget struct {
	sw *core.Switch
	t  *nvme.Tenant
}

func (a *swTarget) Submit(io *nvme.IO) {
	io.Tenant = a.t
	a.sw.Enqueue(io)
}

// volRig is one simulated JBOF with a volume control plane on top: the
// harness rig (a Gimbal switch per SSD, class weights compiled from the QoS
// menu) with no worker streams, the volume manager over its SSDs, and
// per-(SSD, class) adapter targets so the mapping layer routes by class.
type volRig struct {
	*FioRun
	m       *volume.Manager
	classes *volume.ClassSet
	comp    volume.Compiled
	routers []volume.Router // per class
}

// newVolRig builds the rig, to be run for w. Tenant IDs are allocated
// densely per rig, so two rigs are independent and identically seeded rigs
// are identical. maxSlots > 0 overrides the per-switch virtual-slot ceiling
// (the fairness phase raises it so the congestion-control rate gate — where
// the class DRR arbitrates — is the binding resource, not the
// equal-per-contender slot allotment).
func newVolRig(nssd int, capacity int64, maxSlots int, w window) *volRig {
	classes, err := volume.ParseClasses(volChurnClasses)
	if err != nil {
		panic(err)
	}
	comp := classes.Compile()
	p := ssd.DCT983()
	p.UsableBytes = capacity
	r := &volRig{classes: classes, comp: comp, FioRun: NewFioRun(FioConfig{
		Scheme: fabric.SchemeGimbal, Cond: ssd.Clean, Params: p, NumSSD: nssd, Seed: 23,
		Warm: w.warm, Dur: w.dur,
		GimbalCfg: func(tc *fabric.TargetConfig) {
			tc.Gimbal.Sched.ClassWeights = comp.ClassWeights
			if maxSlots > 0 {
				tc.Gimbal.Sched.Slots.MaxSlots = maxSlots
			}
		}})}

	nextID := 0
	adapter := func(sw *core.Switch, name string, class int) *swTarget {
		t := nvme.NewTenant(nextID, name)
		nextID++
		t.Class = class
		sw.Register(t)
		return &swTarget{sw: sw, t: t}
	}
	adapters := make([][]*swTarget, nssd) // [ssd][class]
	ssds := make([]volume.SSD, nssd)
	for i := range ssds {
		sw := r.Target.Pipeline(i).Gimbal
		for c := 0; c < classes.Len(); c++ {
			adapters[i] = append(adapters[i], adapter(sw, fmt.Sprintf("ssd%d-%s", i, classes.Spec(c).Name), c))
		}
		ssds[i] = volume.SSD{Capacity: capacity, System: adapter(sw, fmt.Sprintf("ssd%d-system", i), 0)}
	}
	r.m = volume.NewNodeManager(r.Loop, classes, ssds)
	for c := 0; c < classes.Len(); c++ {
		r.routers = append(r.routers, func(b int) volume.Target { return adapters[b][c] })
	}
	return r
}

// churnState drives the control plane and the data plane against one rig:
// a target live-volume population maintained by create/delete churn with
// snapshots, clones, and resizes mixed in, plus open-loop IO spread over
// the live population. It is the rig's one load.
type churnState struct {
	r          *volRig
	vc         volChurnSize
	target     int
	nextV      int
	nextS      int
	rng, ioRNG *sim.RNG // control plane, data plane

	live  []*volume.Volume
	snaps []*volume.Snapshot

	creates, deletes, snapCuts, snapDels, clones, resizes, rejected int64

	completed, aborted, errored, shed, writeBytes int64
	inflight                                      int
	lat                                           *stats.Histogram
}

// Start prefills the population to the target, then arms the churn and IO
// processes until stopAt.
func (cs *churnState) Start(stopAt int64) {
	for len(cs.live) < cs.target {
		cs.create()
	}
	loop, churnGap := cs.r.Loop, int64(1e9/cs.vc.opsPS)
	var churnTick, ioTick func()
	churnTick = func() {
		cs.step()
		if loop.Now() < stopAt {
			loop.After(churnGap, churnTick).MarkDaemon()
		}
	}
	ioTick = func() {
		cs.issueIO()
		if loop.Now() < stopAt {
			loop.After(int64(cs.ioRNG.Exp(1e9/cs.vc.iops))+1, ioTick).MarkDaemon()
		}
	}
	loop.After(churnGap, churnTick).MarkDaemon()
	loop.After(1, ioTick).MarkDaemon()
}

// ResetStats zeroes the row's counters (the prefill's creates among them).
// The manager's COW and zero-read counts are not reset, so the churn rows
// run with no warm-up.
func (cs *churnState) ResetStats() {
	cs.creates, cs.deletes, cs.snapCuts, cs.snapDels, cs.clones, cs.resizes, cs.rejected = 0, 0, 0, 0, 0, 0, 0
	cs.completed, cs.aborted, cs.errored, cs.shed, cs.writeBytes = 0, 0, 0, 0, 0
	cs.lat.Reset()
}

func (cs *churnState) vsize() int64 {
	return int64(4+cs.rng.Intn(13)) << 20 // 4–16MB
}

func (cs *churnState) create() {
	name := fmt.Sprintf("v%06d", cs.nextV)
	cs.nextV++
	v, err := cs.r.m.Create(volume.Spec{
		Name:  name,
		Size:  cs.vsize(),
		Class: cs.r.classes.Spec(cs.rng.Intn(cs.r.classes.Len())).Name,
	})
	if err != nil {
		cs.rejected++
		return
	}
	cs.live = append(cs.live, v)
	cs.creates++
}

func (cs *churnState) deleteVol() {
	if len(cs.live) == 0 {
		return
	}
	i := cs.rng.Intn(len(cs.live))
	if err := cs.r.m.Delete(cs.live[i].Name()); err != nil {
		cs.rejected++
		return
	}
	cs.live[i] = cs.live[len(cs.live)-1] // swap-remove: deterministic
	cs.live = cs.live[:len(cs.live)-1]
	cs.deletes++
}

// step performs one control-plane operation, keeping the live population
// at the target.
func (cs *churnState) step() {
	if len(cs.live) < cs.target {
		cs.create()
		return
	}
	switch op := cs.rng.Float64(); {
	case op < 0.45: // replace: delete one, create one
		cs.deleteVol()
		cs.create()
	case op < 0.60: // snapshot a random live volume
		v := cs.live[cs.rng.Intn(len(cs.live))]
		name := fmt.Sprintf("s%06d", cs.nextS)
		cs.nextS++
		s, err := cs.r.m.Snapshot(v.Name(), name)
		if err != nil {
			cs.rejected++
			return
		}
		cs.snaps = append(cs.snaps, s)
		cs.snapCuts++
	case op < 0.75: // clone a random snapshot, retiring a volume to hold the population
		if len(cs.snaps) == 0 {
			cs.create()
			return
		}
		s := cs.snaps[cs.rng.Intn(len(cs.snaps))]
		name := fmt.Sprintf("v%06d", cs.nextV)
		cs.nextV++
		v, err := cs.r.m.Clone(s.Name(), name, cs.r.classes.Spec(cs.rng.Intn(cs.r.classes.Len())).Name)
		if err != nil {
			cs.rejected++
			return
		}
		cs.live = append(cs.live, v)
		cs.clones++
		cs.deleteVol()
	case op < 0.90: // delete a random snapshot (clones pin it: counted, skipped)
		if len(cs.snaps) == 0 {
			return
		}
		i := cs.rng.Intn(len(cs.snaps))
		if err := cs.r.m.DeleteSnapshot(cs.snaps[i].Name()); err != nil {
			cs.rejected++
			return
		}
		cs.snaps[i] = cs.snaps[len(cs.snaps)-1]
		cs.snaps = cs.snaps[:len(cs.snaps)-1]
		cs.snapDels++
	default: // resize a random live volume
		v := cs.live[cs.rng.Intn(len(cs.live))]
		if err := cs.r.m.Resize(v.Name(), cs.vsize()); err != nil {
			cs.rejected++
			return
		}
		cs.resizes++
	}
}

// issueIO sends one open-loop IO at a random offset of a random live
// volume through the mapping layer on the volume's class router.
func (cs *churnState) issueIO() {
	const ioSize = 16 << 10
	if len(cs.live) == 0 {
		return
	}
	if cs.inflight >= 4096 {
		cs.shed++
		return
	}
	v := cs.live[cs.ioRNG.Intn(len(cs.live))]
	if v.Size() < ioSize {
		return
	}
	slots := (v.Size() - ioSize) / 4096
	io := &nvme.IO{
		Offset:   cs.ioRNG.Int63n(slots+1) * 4096,
		Size:     ioSize,
		Priority: cs.r.comp.Priorities[v.Class()],
	}
	if cs.ioRNG.Float64() < 0.6 {
		io.Op = nvme.OpWrite
	} else {
		io.Op = nvme.OpRead
	}
	start := cs.r.Loop.Now()
	cs.inflight++
	io.Done = func(io *nvme.IO, cpl nvme.Completion) {
		cs.inflight--
		switch cpl.Status {
		case nvme.StatusOK:
			cs.completed++
			cs.lat.Record(cs.r.Loop.Now() - start)
			if io.Op == nvme.OpWrite {
				cs.writeBytes += int64(io.Size)
			}
		case nvme.StatusAborted:
			cs.aborted++ // volume deleted with the IO in flight
		default:
			cs.errored++
		}
	}
	v.Route(io, cs.r.routers[v.Class()])
}

// runVolumeChurn reports two tables: the churn sweep (population scale
// points, accounting audit, COW amplification, teardown exactness) and a
// saturation fairness check of the compiled class weights.
func runVolumeChurn(cx *Ctx) []*Result {
	churn := &Result{
		ID:    "volume-churn",
		Title: "Thousands of live volumes under create/snapshot/clone/delete churn with open-loop IO",
		Header: []string{"live_vols", "ssds", "churn_ops", "snaps", "clones", "rejected",
			"completed", "aborted", "shed", "p50_us", "p99_us",
			"write_mb", "cow_copies", "cow_amp", "zero_reads",
			"alloc_mb", "logical_mb", "audit", "end_alloc_b", "trims", "alloc_fail"},
	}
	vc := cx.scale().volumes
	for _, target := range vc.targets {
		volumeChurnRow(cx, churn, target)
	}
	churn.Notef("audit recomputes refcounts and byte accounting from the live mapping tables: "+
		"ok = allocated bytes exactly equal the sum of live unique spans at %0.f ops/s churn", vc.opsPS)
	churn.Notef("cow_amp = bytes copied by COW remaps / client write bytes; COW copies ride the writing class's tenant")
	churn.Notef("end_alloc_b is allocated bytes after deleting every volume and snapshot — nonzero means a leaked span")

	fair := &Result{
		ID:     "volume-churn-fairness",
		Title:  fmt.Sprintf("Saturating one SSD from one volume per class (%s): bandwidth vs configured weights", volChurnClasses),
		Header: []string{"class", "weight", "mbps", "share", "want_share", "err_pct"},
	}
	volumeFairnessRows(cx, fair)
	fair.Notef("closed-loop 64KB writes, one volume per class on one SSD; share is the class's fraction " +
		"of delivered bandwidth, want_share its weight's fraction of the weight sum")
	return []*Result{churn, fair}
}

// volumeChurnRow runs one scale point: prefill to the target population,
// churn + open-loop IO over the measured window, audit, then tear
// everything down and verify the allocator drained to zero.
func volumeChurnRow(cx *Ctx, res *Result, target int) {
	vc := cx.scale().volumes
	r := newVolRig(vc.ssds, vc.capacity, 0, window{dur: vc.churnDur})
	rng := sim.NewRNG(uint64(37 + target))
	cs := &churnState{r: r, vc: vc, target: target, rng: rng.Fork(), ioRNG: rng.Fork(), lat: stats.NewHistogram()}
	r.loads = append(r.loads, cs)
	cx.Run(r.FioRun)

	u := r.m.Usage()
	audit := "ok"
	if err := r.m.Audit(); err != nil {
		audit = "FAIL: " + err.Error()
	}
	if len(cs.live) < target {
		audit += fmt.Sprintf(" (population fell to %d)", len(cs.live))
	}
	cowAmp := 0.0
	if cs.writeBytes > 0 {
		cowAmp = float64(u.CowBytesCopied) / float64(cs.writeBytes)
	}

	// Teardown: volumes first (unpinning snapshots), then snapshots.
	for _, v := range r.m.List() {
		if err := r.m.Delete(v.Name()); err != nil {
			audit += " (teardown: " + err.Error() + ")"
		}
	}
	for _, s := range r.m.ListSnapshots() {
		if err := r.m.DeleteSnapshot(s.Name()); err != nil {
			audit += " (teardown: " + err.Error() + ")"
		}
	}
	r.Loop.Run() // drain trims
	end := r.m.Usage()

	res.AddRow(
		strconv.Itoa(target),
		strconv.Itoa(vc.ssds),
		strconv.FormatInt(cs.creates+cs.deletes+cs.snapCuts+cs.snapDels+cs.clones+cs.resizes, 10),
		strconv.FormatInt(cs.snapCuts, 10),
		strconv.FormatInt(cs.clones, 10),
		strconv.FormatInt(cs.rejected, 10),
		strconv.FormatInt(cs.completed, 10),
		strconv.FormatInt(cs.aborted, 10),
		strconv.FormatInt(cs.shed, 10),
		us(cs.lat.P50()), us(cs.lat.P99()),
		strconv.FormatInt(cs.writeBytes>>20, 10),
		strconv.FormatInt(u.CowCopies, 10),
		f2(cowAmp),
		strconv.FormatInt(u.ZeroReads, 10),
		strconv.FormatInt(u.AllocatedBytes>>20, 10),
		strconv.FormatInt(u.LogicalBytes>>20, 10),
		audit,
		strconv.FormatInt(end.AllocatedBytes, 10),
		strconv.FormatInt(end.Trims, 10),
		strconv.FormatInt(end.AllocFailures, 10),
	)
}

// classWriter is one class's closed-loop writer in the fairness table:
// fairQD random 64KB writes kept outstanding on the class's volume until
// stopAt. The queue depth is far above the device's sustainable
// outstanding set, so every class keeps a standing DRR backlog and the
// class weights — not the closed loop — decide the dispatch ratio. bytes
// counts completions from ResetStats to stopAt, not after: the ~fairQD
// outstanding IOs per class complete then in equal numbers and would
// dilute the measured ratio toward 1.
type classWriter struct {
	r             *volRig
	v             *volume.Volume
	class         int
	rng           *sim.RNG
	stopAt, bytes int64
}

const fairQD, fairIOSize = 256, 64 << 10

func (w *classWriter) Start(stopAt int64) {
	w.stopAt = stopAt
	for i := 0; i < fairQD; i++ {
		w.submit()
	}
}

func (w *classWriter) ResetStats() { w.bytes = 0 }

func (w *classWriter) submit() {
	if w.r.Loop.Now() >= w.stopAt {
		return
	}
	slots := (w.v.Size() - fairIOSize) / 4096
	io := &nvme.IO{
		Op:       nvme.OpWrite,
		Offset:   w.rng.Int63n(slots+1) * 4096,
		Size:     fairIOSize,
		Priority: w.r.comp.Priorities[w.class],
	}
	io.Done = func(io *nvme.IO, cpl nvme.Completion) {
		if cpl.Status == nvme.StatusOK && w.r.Loop.Now() <= w.stopAt {
			w.bytes += int64(io.Size)
		}
		w.submit()
	}
	w.v.Route(io, w.r.routers[w.class])
}

// volumeFairnessRows saturates one SSD with a closed-loop writer per
// class and reports each class's delivered share against its weight.
func volumeFairnessRows(cx *Ctx, res *Result) {
	vc := cx.scale().volumes
	r := newVolRig(1, vc.capacity, 4096, vc.fairWindow)
	writers := make([]*classWriter, r.classes.Len())
	rng := sim.NewRNG(53)
	for c := range writers {
		v, err := r.m.Create(volume.Spec{
			Name:  "fair-" + r.classes.Spec(c).Name,
			Size:  256 << 20,
			Class: r.classes.Spec(c).Name,
		})
		if err != nil {
			panic(err)
		}
		writers[c] = &classWriter{r: r, v: v, class: c, rng: rng.Fork()}
		r.loads = append(r.loads, writers[c])
	}
	cx.Run(r.FioRun)

	var total int64
	weightSum := 0
	for c, w := range writers {
		total += w.bytes
		weightSum += r.classes.Spec(c).Weight
	}
	secs := float64(vc.fairWindow.dur) / 1e9
	for c, w := range writers {
		share := 0.0
		if total > 0 {
			share = float64(w.bytes) / float64(total)
		}
		want := float64(r.classes.Spec(c).Weight) / float64(weightSum)
		res.AddRow(
			r.classes.Spec(c).Name,
			strconv.Itoa(r.classes.Spec(c).Weight),
			f1(float64(w.bytes)/1e6/secs),
			f2(share),
			f2(want),
			f1((share-want)/want*100),
		)
	}
}
