// Package sched implements Gimbal's hierarchical IO scheduler (§3.5): a
// deficit-round-robin scheduler over QoS classes, then over the tenants of
// each class, using cost-weighted IO sizes, integrated with the
// virtual-slot mechanism (active/deferred tenant lists, deficit freezing
// while deferred), and per-tenant weighted priority queues cycled when
// filling a slot.
//
// Every per-IO operation — Enqueue, Select, Commit, Complete — and every
// tenant activation or deactivation is O(1) in the number of REGISTERED
// tenants: the per-tenant virtual-slot allotment is not pushed to all
// tenants when the contender count changes (that loop is quadratic under
// churny 100k-tenant populations) but derived lazily from an epoch-stamped
// global share, reconciled per tenant the next time its slot state is
// touched. The eager loop this replaced lives on as a test oracle
// (lazy_test.go), which pins the two to byte-identical decisions.
package sched

import (
	"gimbal/internal/core/vslot"
	"gimbal/internal/nvme"
)

// Config holds the scheduler parameters.
type Config struct {
	Quantum int64 // DRR quantum per round (128KB, the maximum IO size)
	Slots   vslot.Config

	// ClassWeights maps QoS class index (nvme.Tenant.Class) to the DRR
	// weight of that class at the top level of the hierarchy. Empty or
	// single-entry keeps the flat single-class scheduler, which is
	// decision-for-decision identical to the paper's §3.5 DRR. Weights
	// below 1 are clamped to 1.
	ClassWeights []int
}

// DefaultConfig returns the paper's settings.
func DefaultConfig() Config {
	return Config{Quantum: 128 << 10, Slots: vslot.DefaultConfig()}
}

// listKind identifies which list a tenant is on.
type listKind int

const (
	idle listKind = iota
	active
	deferred
)

// tenant is the scheduler's per-tenant state.
type tenant struct {
	t      *nvme.Tenant
	owner  *DRR // which scheduler's state this is (nvme.Tenant.State cache)
	queues [nvme.NumPriorities]nvme.FIFO[*nvme.IO]
	queued int

	// Weighted priority cycling within a slot.
	prio       nvme.Priority
	prioBudget int

	deficit int64
	slots   vslot.Tenant

	// allotGen stamps the redistribution epoch whose global share this
	// tenant's slot allotment reflects; reconcile applies the current
	// share when the stamp is stale.
	allotGen uint64

	// class is the QoS class the tenant was registered into.
	class *class

	where listKind

	// Virtual-slot wait accounting (phase attribution): deferStart stamps
	// when the tenant last entered the deferred list; deferAccum is the
	// monotone total time spent deferred. An IO's vslot wait is the
	// deferAccum delta between its Enqueue and Commit.
	deferStart int64
	deferAccum int64

	// Intrusive active-list links: membership costs no allocation, unlike
	// a container/list element per activation.
	next, prev *tenant
	onList     bool
}

func (ts *tenant) empty() bool { return ts.queued == 0 }

// head returns the next IO according to the weighted priority cycle,
// advancing past exhausted classes. Returns nil when no IO is queued.
func (ts *tenant) head() *nvme.IO {
	if ts.queued == 0 {
		return nil
	}
	for i := 0; i < int(nvme.NumPriorities); i++ {
		if ts.prioBudget > 0 && ts.queues[ts.prio].Len() > 0 {
			return ts.queues[ts.prio].Front()
		}
		ts.prio = (ts.prio + 1) % nvme.NumPriorities
		ts.prioBudget = ts.prio.Weight()
	}
	// Budget exhausted on an empty class but IOs exist elsewhere: retry.
	for i := 0; i < int(nvme.NumPriorities); i++ {
		if ts.queues[ts.prio].Len() > 0 {
			return ts.queues[ts.prio].Front()
		}
		ts.prio = (ts.prio + 1) % nvme.NumPriorities
		ts.prioBudget = ts.prio.Weight()
	}
	return nil
}

// pop removes the IO previously returned by head.
func (ts *tenant) pop(io *nvme.IO) {
	q := &ts.queues[io.Priority]
	if q.Len() == 0 || q.Front() != io {
		panic("sched: pop of non-head IO")
	}
	q.Pop()
	ts.queued--
	if io.Priority == ts.prio && ts.prioBudget > 0 {
		ts.prioBudget--
	}
}

// tenantList is an intrusive doubly-linked list of tenants.
type tenantList struct {
	head, tail *tenant
	size       int
}

func (l *tenantList) pushBack(ts *tenant) {
	if ts.onList {
		panic("sched: tenant already on active list")
	}
	ts.onList = true
	ts.prev = l.tail
	ts.next = nil
	if l.tail != nil {
		l.tail.next = ts
	} else {
		l.head = ts
	}
	l.tail = ts
	l.size++
}

func (l *tenantList) remove(ts *tenant) {
	if !ts.onList {
		return
	}
	if ts.prev != nil {
		ts.prev.next = ts.next
	} else {
		l.head = ts.next
	}
	if ts.next != nil {
		ts.next.prev = ts.prev
	} else {
		l.tail = ts.prev
	}
	ts.next, ts.prev = nil, nil
	ts.onList = false
	l.size--
}

func (l *tenantList) moveToBack(ts *tenant) {
	if ts == l.tail {
		return
	}
	l.remove(ts)
	l.pushBack(ts)
}

// class is one QoS class: the middle level of the hierarchy. Its active
// list holds only tenants with queued work, so the switch round-robins
// over a handful of classes regardless of the registered population.
type class struct {
	weight  int
	active  tenantList
	deficit int64

	// Intrusive links on the scheduler's active-class ring.
	next, prev *class
	onRing     bool
}

// classList is an intrusive doubly-linked list of classes with work.
type classList struct {
	head, tail *class
	size       int
}

func (l *classList) pushBack(c *class) {
	if c.onRing {
		panic("sched: class already on active ring")
	}
	c.onRing = true
	c.prev = l.tail
	c.next = nil
	if l.tail != nil {
		l.tail.next = c
	} else {
		l.head = c
	}
	l.tail = c
	l.size++
}

func (l *classList) remove(c *class) {
	if !c.onRing {
		return
	}
	if c.prev != nil {
		c.prev.next = c.next
	} else {
		l.head = c.next
	}
	if c.next != nil {
		c.next.prev = c.prev
	} else {
		l.tail = c.prev
	}
	c.next, c.prev = nil, nil
	c.onRing = false
	l.size--
}

func (l *classList) moveToBack(c *class) {
	if c == l.tail {
		return
	}
	l.remove(c)
	l.pushBack(c)
}

// DRR is the hierarchical fair scheduler. It owns queueing and fairness
// only; the switch couples it to the rate controller and the device.
type DRR struct {
	// What Select and Commit read comes first, to share cache lines.

	// activeClasses rings the classes that currently hold tenants with
	// queued work; classes is the fixed QoS hierarchy. flat marks the
	// single-class degenerate case, where the class layer adds no deficit
	// accounting and the scheduler is decision-identical to flat DRR.
	activeClasses classList
	flat          bool

	// sel is the IO the last Select returned, selTs its tenant and selW
	// its weighted size, which Commit charges: nothing moves the write
	// cost between the two.
	sel   *nvme.IO
	selTs *tenant
	selW  int64

	queuedTotal int

	// Lazy redistribution state: per is the current per-contender slot
	// share and gen the epoch it belongs to. Every contend/release bumps
	// gen (even when per is unchanged, mirroring the eager loop's
	// unconditional restamp) and tenants reconcile on next touch.
	gen uint64
	per int

	weighted func(io *nvme.IO) int64 // cost-weighted size (from writecost)

	// now, when set via SetClock, timestamps deferred-list residency so
	// IOs carry their virtual-slot wait (nvme.IO.VslotWait). Nil disables
	// the accounting (standalone scheduler tests).
	now func() int64

	cfg     Config
	classes []*class
	tenants map[*nvme.Tenant]*tenant

	activeCount int // tenants on any class's active list
	deferCount  int
	activeIO    int // tenants considered "contending" for slot distribution

	// afterRedistribute is a test seam, nil outside lazy_test.go, which
	// installs the eager restamp-every-tenant loop as the oracle.
	afterRedistribute func()

	// freeTenants recycles per-tenant state across Unregister/Register so
	// sustained tenant churn performs no steady-state allocation.
	freeTenants []*tenant
}

// New returns a DRR scheduler. weighted computes the cost-weighted size of
// an IO at dispatch time.
func New(cfg Config, weighted func(io *nvme.IO) int64) *DRR {
	d := &DRR{
		cfg:      cfg,
		weighted: weighted,
		tenants:  make(map[*nvme.Tenant]*tenant),
		per:      cfg.Slots.MaxSlots,
	}
	weights := cfg.ClassWeights
	if len(weights) == 0 {
		weights = []int{1}
	}
	for _, w := range weights {
		if w < 1 {
			w = 1
		}
		d.classes = append(d.classes, &class{weight: w})
	}
	d.flat = len(d.classes) == 1
	return d
}

// SetClock attaches the scheduler clock used to attribute deferred-list
// residency to IOs (phase tracing). Call before traffic.
func (d *DRR) SetClock(now func() int64) { d.now = now }

// classOf maps a tenant to its QoS class, clamping out-of-range indices.
func (d *DRR) classOf(t *nvme.Tenant) *class {
	c := t.Class
	if c < 0 || c >= len(d.classes) {
		c = 0
	}
	return d.classes[c]
}

// Register adds a tenant.
func (d *DRR) Register(t *nvme.Tenant) {
	if _, ok := d.tenants[t]; ok {
		return
	}
	var ts *tenant
	if n := len(d.freeTenants); n > 0 {
		ts = d.freeTenants[n-1]
		d.freeTenants = d.freeTenants[:n-1]
		ts.slots.Reset()
	} else {
		ts = &tenant{slots: *vslot.NewTenant(d.cfg.Slots)}
	}
	ts.t = t
	ts.prio = nvme.PriorityHigh
	ts.prioBudget = nvme.PriorityHigh.Weight()
	ts.deficit = 0
	ts.class = d.classOf(t)
	// The fresh vslot state carries the solo allotment (MaxSlots) until
	// the next redistribution epoch, exactly as under the eager loop
	// (which never touched a tenant at registration either).
	ts.allotGen = d.gen
	ts.where = idle
	ts.deferStart, ts.deferAccum = 0, 0
	ts.owner = d
	d.tenants[t] = ts
	// Cache the state on the tenant so per-IO lookups skip the map (flat
	// cost regardless of the registered population). A tenant registered
	// with several schedulers keeps only the latest cache; the others fall
	// back to their maps.
	t.State = ts
}

// lookup resolves a tenant's scheduler state: the cached pointer on the
// tenant when this scheduler owns it, else the map (shared tenants,
// unregistered tenants → nil).
func (d *DRR) lookup(t *nvme.Tenant) *tenant {
	if ts, ok := t.State.(*tenant); ok && ts.owner == d && ts.t == t {
		return ts
	}
	return d.tenants[t]
}

// reconcile applies the current global slot share to one tenant if its
// stamp is stale. This is the whole of the "redistribution" work a hot-path
// operation performs: two word compares in the common case.
func (d *DRR) reconcile(ts *tenant) {
	if ts.allotGen != d.gen {
		ts.slots.SetAllot(d.per)
		ts.allotGen = d.gen
	}
}

// Slots exposes a tenant's virtual-slot state (for credit computation),
// reconciled to the current redistribution epoch. It returns nil for
// tenants that were never registered or have been unregistered.
func (d *DRR) Slots(t *nvme.Tenant) *vslot.Tenant {
	ts := d.lookup(t)
	if ts == nil {
		return nil
	}
	d.reconcile(ts)
	return &ts.slots
}

// Registered reports whether the tenant currently has scheduler state.
func (d *DRR) Registered(t *nvme.Tenant) bool {
	_, ok := d.tenants[t]
	return ok
}

// Unregister tears down a tenant's scheduler state (session disconnect):
// the tenant leaves the active/deferred lists, its slot allotment returns
// to the redistribution pool, and its vslot state is dropped wholesale so
// no credit can remain stranded. Queued IOs are returned for the caller to
// abort; IOs already committed to the device complete through Complete,
// which tolerates the missing tenant. The teardown is O(1) in registered
// tenants (plus the tenant's own queued IOs).
func (d *DRR) Unregister(t *nvme.Tenant) []*nvme.IO {
	ts, ok := d.tenants[t]
	if !ok {
		return nil
	}
	var orphans []*nvme.IO
	for p := range ts.queues {
		q := &ts.queues[p]
		for q.Len() > 0 {
			orphans = append(orphans, q.Pop())
		}
	}
	d.queuedTotal -= ts.queued
	ts.queued = 0
	if d.selTs == ts {
		d.sel, d.selTs = nil, nil // an orphan now: Commit must not take it
	}
	if ts.where != idle {
		d.idle_(ts) // leaves the lists and releases the slot share
	}
	delete(d.tenants, t)
	if cached, ok := t.State.(*tenant); ok && cached == ts {
		t.State = nil
	}
	ts.t = nil
	ts.owner = nil
	d.freeTenants = append(d.freeTenants, ts)
	d.redistribute()
	return orphans
}

// Enqueue adds an IO to its tenant's priority queue, activating the tenant
// if it was idle. It reports false — leaving the IO untouched — when the
// tenant is not registered (e.g. an in-flight capsule arriving after its
// session disconnected).
func (d *DRR) Enqueue(io *nvme.IO) bool {
	ts := d.lookup(io.Tenant)
	if ts == nil {
		return false
	}
	if d.now != nil {
		// Baseline for the vslot-wait delta computed at Commit. Include
		// the in-progress deferral so a tenant already closed out of its
		// slots charges the IO only from its arrival onward.
		base := ts.deferAccum
		if ts.where == deferred {
			base += d.now() - ts.deferStart
		}
		io.VslotWait = base
	}
	wasEmpty := ts.empty()
	ts.queues[io.Priority].Push(io)
	ts.queued++
	d.queuedTotal++
	if wasEmpty && ts.where == idle {
		d.contend(ts)
		d.reconcile(ts)
		if ts.slots.Reopen() {
			d.activate(ts)
		} else {
			d.defer_(ts)
		}
	}
	return true
}

// contend marks the tenant as competing for the device and opens a new
// redistribution epoch so that every contender holds an equal share
// (§3.5). No tenant state is touched here; shares apply lazily.
func (d *DRR) contend(ts *tenant) {
	d.activeIO++
	d.redistribute()
	_ = ts
}

// release is the inverse of contend.
func (d *DRR) release(ts *tenant) {
	d.activeIO--
	d.redistribute()
	_ = ts
}

// redistribute recomputes the global per-contender share and opens a new
// epoch. O(1): no tenant is visited.
func (d *DRR) redistribute() {
	n := d.activeIO
	if n < 1 {
		n = 1
	}
	per := d.cfg.Slots.MaxSlots / n
	if per < 1 {
		per = 1
	}
	d.per = per
	d.gen++
	if d.afterRedistribute != nil {
		d.afterRedistribute()
	}
}

// pushActive places a tenant on its class's active list, waking the class
// ring entry when the class had no runnable tenant.
func (d *DRR) pushActive(ts *tenant) {
	c := ts.class
	if c.active.size == 0 {
		d.activeClasses.pushBack(c)
	}
	c.active.pushBack(ts)
	d.activeCount++
}

// removeActive is the inverse of pushActive; an emptied class leaves the
// ring with its deficit reset (same rule as an idling tenant).
func (d *DRR) removeActive(ts *tenant) {
	c := ts.class
	c.active.remove(ts)
	if c.active.size == 0 {
		d.activeClasses.remove(c)
		c.deficit = 0
	}
	d.activeCount--
}

func (d *DRR) activate(ts *tenant) {
	if ts.where == deferred && d.now != nil {
		ts.deferAccum += d.now() - ts.deferStart
	}
	ts.where = active
	d.pushActive(ts)
}

func (d *DRR) defer_(ts *tenant) {
	if ts.where == active {
		d.removeActive(ts)
	}
	if ts.where != deferred && d.now != nil {
		ts.deferStart = d.now()
	}
	ts.where = deferred
	ts.deficit = 0 // frozen at zero while deferred (§3.5)
	d.deferCount++
}

func (d *DRR) idle_(ts *tenant) {
	if ts.where == active {
		d.removeActive(ts)
	}
	if ts.where == deferred {
		d.deferCount--
		if d.now != nil {
			ts.deferAccum += d.now() - ts.deferStart
		}
	}
	ts.where = idle
	ts.deficit = 0
	d.release(ts)
}

// Select runs DRR rounds until the head class's head tenant has
// accumulated enough deficit for its next IO, returning that IO without
// dequeuing it. It returns nil when no active tenant has queued work.
// Select is idempotent once a dispatchable IO is found: calling it again
// without Commit returns the same IO with no extra deficit. In the flat
// (single-class) configuration the class layer performs no deficit
// accounting and the loop is the paper's §3.5 DRR verbatim.
func (d *DRR) Select() *nvme.IO {
	for d.activeClasses.size > 0 {
		c := d.activeClasses.head
		ts := c.active.head
		io := ts.head()
		if io == nil {
			// No queued work: leave the lists entirely.
			d.idle_(ts)
			continue
		}
		w := d.weighted(io)
		if ts.deficit < w {
			// Grant a quantum and move to the back (classic DRR round).
			ts.deficit += d.cfg.Quantum * int64(ts.t.Weight)
			c.active.moveToBack(ts)
			continue
		}
		if d.flat || c.deficit >= w {
			d.sel, d.selTs, d.selW = io, ts, w
			return io
		}
		// Class-level round: grant the class its weighted quantum and
		// rotate the ring.
		c.deficit += d.cfg.Quantum * int64(c.weight)
		d.activeClasses.moveToBack(c)
	}
	d.sel, d.selTs = nil, nil
	return nil
}

// Commit dequeues the IO the last Select returned from the tenant Select
// found it at, charges the weighted size Select computed for it to the
// tenant's (and class's) deficit, and
// places it in the tenant's current virtual slot. The caller keeps the
// write cost still in between (the switch re-selects after a cost tick).
// If the slot closes with no replacement available, the tenant moves to
// the deferred list. The IO's slot is recorded in io.Sched for Complete.
func (d *DRR) Commit(io *nvme.IO) {
	if io != d.sel {
		panic("sched: Commit of an IO the last Select did not return")
	}
	ts, w := d.selTs, d.selW
	d.sel, d.selTs = nil, nil
	ts.pop(io)
	d.queuedTotal--
	ts.deficit -= w
	if !d.flat {
		ts.class.deficit -= w
	}
	if d.now != nil {
		// The tenant is active here (Select found it on the active
		// list), so deferAccum is up to date: the delta since Enqueue is
		// exactly the deferral overlapping this IO's queue residency.
		io.VslotWait = ts.deferAccum - io.VslotWait
	}
	d.reconcile(ts)
	io.Sched = ts.slots.Submit(w)
	if !ts.slots.HasOpenSlot() {
		d.defer_(ts)
	} else if ts.empty() {
		d.idle_(ts)
	}
}

// Complete records an IO completion against its virtual slot (Algorithm 2
// Sched_Complete). A deferred tenant whose slot freed rejoins the end of
// the active list. It returns the tenant's refreshed credit.
func (d *DRR) Complete(io *nvme.IO) (credit uint32) {
	ts := d.lookup(io.Tenant)
	if ts == nil {
		// Tenant unregistered while the IO was at the device: its vslot
		// state is gone, so there is no credit to refresh.
		return 0
	}
	d.reconcile(ts)
	slot := io.Sched.(*vslot.Slot)
	freed, _ := ts.slots.Complete(slot)
	if freed && ts.where == deferred {
		if ts.slots.HasOpenSlot() {
			d.deferCount--
			d.activate(ts)
		}
		if ts.empty() {
			// Nothing left to schedule: drop out entirely.
			d.idle_(ts)
		}
	}
	// idle_ above may have released the tenant's contention and opened a
	// new epoch; the credit piggybacked on this completion must reflect
	// the share the remaining contenders now hold.
	d.reconcile(ts)
	return ts.slots.Credit()
}

// ActiveTenants returns the number of tenants on the active lists. O(1):
// reads a maintained counter.
func (d *DRR) ActiveTenants() int { return d.activeCount }

// DeferredTenants returns the number of deferred tenants. O(1).
func (d *DRR) DeferredTenants() int { return d.deferCount }

// Queued returns the total queued IO count (for tests and stats). O(1):
// reads a maintained counter instead of scanning registered tenants.
func (d *DRR) Queued() int { return d.queuedTotal }

// RegisteredTenants returns the registered-tenant population. O(1).
func (d *DRR) RegisteredTenants() int { return len(d.tenants) }

// SlotShare returns the current per-contender virtual-slot share (the
// lazy redistribution target every touched tenant reconciles to).
func (d *DRR) SlotShare() int { return d.per }

// ClassActive returns the number of runnable tenants in class i.
func (d *DRR) ClassActive(i int) int {
	if i < 0 || i >= len(d.classes) {
		return 0
	}
	return d.classes[i].active.size
}
