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

// Knobs as package variables so the smoke test can shrink the run.
var (
	volChurnSSDs     = 4
	volChurnCapacity = int64(4) << 30 // per-SSD usable bytes
	volChurnTargets  = []int{500, 2500}
	volChurnOpsPS    = 2000.0 // control-plane operations/s
	volChurnIOPS     = 25_000.0
	volChurnWarm     = int64(100 * sim.Millisecond)
	volChurnDur      = int64(900 * sim.Millisecond)
	volChurnFairWarm = int64(200 * sim.Millisecond)
	volChurnFairDur  = int64(600 * sim.Millisecond)
)

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

// newVolRig builds the rig. Tenant IDs are allocated densely per rig, so
// two rigs are independent and identically seeded rigs are identical.
// maxSlots > 0 overrides the per-switch virtual-slot ceiling (the fairness
// phase raises it so the congestion-control rate gate — where the class
// DRR arbitrates — is the binding resource, not the equal-per-contender
// slot allotment).
func newVolRig(nssd int, capacity int64, maxSlots int) *volRig {
	classes, err := volume.ParseClasses(volChurnClasses)
	if err != nil {
		panic(err)
	}
	comp := classes.Compile()
	p := ssd.DCT983()
	p.UsableBytes = capacity
	r := &volRig{classes: classes, comp: comp, FioRun: NewFioRun(FioConfig{
		Scheme: fabric.SchemeGimbal, Cond: ssd.Clean, Params: p, NumSSD: nssd, Seed: 23,
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
// the live population.
type churnState struct {
	r      *volRig
	target int
	nextV  int
	nextS  int

	live  []*volume.Volume
	snaps []*volume.Snapshot

	creates, deletes, snapCuts, snapDels, clones, resizes, rejected int64

	issued, completed, aborted, errored, shed int64
	writeBytes, readBytes                     int64
	inflight                                  int
	lat                                       *stats.Histogram
}

func (cs *churnState) vsize(rng *sim.RNG) int64 {
	return int64(4+rng.Intn(13)) << 20 // 4–16MB
}

func (cs *churnState) create(rng *sim.RNG) {
	name := fmt.Sprintf("v%06d", cs.nextV)
	cs.nextV++
	v, err := cs.r.m.Create(volume.Spec{
		Name:  name,
		Size:  cs.vsize(rng),
		Class: cs.r.classes.Spec(rng.Intn(cs.r.classes.Len())).Name,
	})
	if err != nil {
		cs.rejected++
		return
	}
	cs.live = append(cs.live, v)
	cs.creates++
}

// removeLive drops index i by deterministic swap-remove.
func (cs *churnState) removeLive(i int) {
	cs.live[i] = cs.live[len(cs.live)-1]
	cs.live = cs.live[:len(cs.live)-1]
}

func (cs *churnState) deleteVol(rng *sim.RNG) {
	if len(cs.live) == 0 {
		return
	}
	i := rng.Intn(len(cs.live))
	if err := cs.r.m.Delete(cs.live[i].Name()); err != nil {
		cs.rejected++
		return
	}
	cs.removeLive(i)
	cs.deletes++
}

// step performs one control-plane operation, keeping the live population
// at the target.
func (cs *churnState) step(rng *sim.RNG) {
	if len(cs.live) < cs.target {
		cs.create(rng)
		return
	}
	switch op := rng.Float64(); {
	case op < 0.45: // replace: delete one, create one
		cs.deleteVol(rng)
		cs.create(rng)
	case op < 0.60: // snapshot a random live volume
		v := cs.live[rng.Intn(len(cs.live))]
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
			cs.create(rng)
			return
		}
		s := cs.snaps[rng.Intn(len(cs.snaps))]
		name := fmt.Sprintf("v%06d", cs.nextV)
		cs.nextV++
		v, err := cs.r.m.Clone(s.Name(), name, cs.r.classes.Spec(rng.Intn(cs.r.classes.Len())).Name)
		if err != nil {
			cs.rejected++
			return
		}
		cs.live = append(cs.live, v)
		cs.clones++
		cs.deleteVol(rng)
	case op < 0.90: // delete a random snapshot (clones pin it: counted, skipped)
		if len(cs.snaps) == 0 {
			return
		}
		i := rng.Intn(len(cs.snaps))
		if err := cs.r.m.DeleteSnapshot(cs.snaps[i].Name()); err != nil {
			cs.rejected++
			return
		}
		cs.snaps[i] = cs.snaps[len(cs.snaps)-1]
		cs.snaps = cs.snaps[:len(cs.snaps)-1]
		cs.snapDels++
	default: // resize a random live volume
		v := cs.live[rng.Intn(len(cs.live))]
		if err := cs.r.m.Resize(v.Name(), cs.vsize(rng)); err != nil {
			cs.rejected++
			return
		}
		cs.resizes++
	}
}

// issueIO sends one open-loop IO at a random offset of a random live
// volume through the mapping layer on the volume's class router.
func (cs *churnState) issueIO(rng *sim.RNG) {
	const ioSize = 16 << 10
	if len(cs.live) == 0 {
		return
	}
	if cs.inflight >= 4096 {
		cs.shed++
		return
	}
	v := cs.live[rng.Intn(len(cs.live))]
	if v.Size() < ioSize {
		return
	}
	slots := (v.Size() - ioSize) / 4096
	io := &nvme.IO{
		Offset:   rng.Int63n(slots+1) * 4096,
		Size:     ioSize,
		Priority: cs.r.comp.Priorities[v.Class()],
	}
	if rng.Float64() < 0.6 {
		io.Op = nvme.OpWrite
	} else {
		io.Op = nvme.OpRead
	}
	start := cs.r.Loop.Now()
	cs.issued++
	cs.inflight++
	io.Done = func(io *nvme.IO, cpl nvme.Completion) {
		cs.inflight--
		switch cpl.Status {
		case nvme.StatusOK:
			cs.completed++
			cs.lat.Record(cs.r.Loop.Now() - start)
			if io.Op == nvme.OpWrite {
				cs.writeBytes += int64(io.Size)
			} else {
				cs.readBytes += int64(io.Size)
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
	for _, target := range volChurnTargets {
		volumeChurnRow(cx, churn, target)
	}
	churn.Notef("audit recomputes refcounts and byte accounting from the live mapping tables: "+
		"ok = allocated bytes exactly equal the sum of live unique spans at %0.f ops/s churn", volChurnOpsPS)
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
	r := newVolRig(volChurnSSDs, volChurnCapacity, 0)
	rng := sim.NewRNG(uint64(37 + target))
	churnRNG, ioRNG := rng.Fork(), rng.Fork()
	cs := &churnState{r: r, target: target, lat: stats.NewHistogram()}

	for len(cs.live) < target {
		cs.create(churnRNG)
	}
	prefill := cs.creates
	stop := r.Loop.Now() + volChurnWarm + volChurnDur

	churnGap := int64(1e9 / volChurnOpsPS)
	var churnTick func()
	churnTick = func() {
		cs.step(churnRNG)
		if r.Loop.Now() < stop {
			r.Loop.After(churnGap, churnTick).MarkDaemon()
		}
	}
	r.Loop.After(churnGap, churnTick).MarkDaemon()

	var ioTick func()
	ioTick = func() {
		cs.issueIO(ioRNG)
		if r.Loop.Now() < stop {
			r.Loop.After(int64(ioRNG.Exp(1e9/volChurnIOPS))+1, ioTick).MarkDaemon()
		}
	}
	r.Loop.After(1, ioTick).MarkDaemon()

	r.Loop.RunUntil(stop)
	r.Loop.Run() // drain in-flight IO

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
	cx.recordObsRun(r.FioRun)
	end := r.m.Usage()

	res.AddRow(
		strconv.Itoa(target),
		strconv.Itoa(volChurnSSDs),
		strconv.FormatInt(cs.creates-prefill+cs.deletes+cs.snapCuts+cs.snapDels+cs.clones+cs.resizes, 10),
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

// volumeFairnessRows saturates one SSD with a closed-loop writer per
// class and reports each class's delivered share against its weight.
func volumeFairnessRows(cx *Ctx, res *Result) {
	r := newVolRig(1, volChurnCapacity, 4096)
	n := r.classes.Len()
	vols := make([]*volume.Volume, n)
	for c := 0; c < n; c++ {
		v, err := r.m.Create(volume.Spec{
			Name:  "fair-" + r.classes.Spec(c).Name,
			Size:  256 << 20,
			Class: r.classes.Spec(c).Name,
		})
		if err != nil {
			panic(err)
		}
		vols[c] = v
	}

	// The queue depth is far above the device's sustainable outstanding
	// set, so every class keeps a standing DRR backlog and the class
	// weights — not the closed loop — decide the dispatch ratio.
	const qd, ioSize = 256, 64 << 10
	bytes := make([]int64, n)
	measuring := false
	stop := r.Loop.Now() + volChurnFairWarm + volChurnFairDur
	rng := sim.NewRNG(53)
	for c := 0; c < n; c++ {
		c := c
		wrng := rng.Fork()
		var submit func()
		submit = func() {
			if r.Loop.Now() >= stop {
				return
			}
			v := vols[c]
			slots := (v.Size() - ioSize) / 4096
			io := &nvme.IO{
				Op:       nvme.OpWrite,
				Offset:   wrng.Int63n(slots+1) * 4096,
				Size:     ioSize,
				Priority: r.comp.Priorities[c],
			}
			io.Done = func(io *nvme.IO, cpl nvme.Completion) {
				if cpl.Status == nvme.StatusOK && measuring {
					bytes[c] += int64(io.Size)
				}
				submit()
			}
			v.Route(io, r.routers[c])
		}
		for i := 0; i < qd; i++ {
			submit()
		}
	}
	r.Loop.RunUntil(r.Loop.Now() + volChurnFairWarm)
	measuring = true
	r.Loop.RunUntil(stop)
	// Close the window before draining: the ~qd outstanding IOs per class
	// complete after stop in equal numbers and would dilute the measured
	// ratio toward 1 if counted.
	measuring = false
	r.Loop.Run()
	cx.recordObsRun(r.FioRun)

	var total int64
	weightSum := 0
	for c := 0; c < n; c++ {
		total += bytes[c]
		weightSum += r.classes.Spec(c).Weight
	}
	secs := float64(volChurnFairDur) / 1e9
	for c := 0; c < n; c++ {
		share := 0.0
		if total > 0 {
			share = float64(bytes[c]) / float64(total)
		}
		want := float64(r.classes.Spec(c).Weight) / float64(weightSum)
		res.AddRow(
			r.classes.Spec(c).Name,
			strconv.Itoa(r.classes.Spec(c).Weight),
			f1(float64(bytes[c])/1e6/secs),
			f2(share),
			f2(want),
			f1((share-want)/want*100),
		)
	}
}
