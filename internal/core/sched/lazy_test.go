package sched

import (
	"fmt"
	"testing"

	"gimbal/internal/nvme"
	"gimbal/internal/sim"
)

// drrDriver drives one DRR instance through a scripted op stream and
// records every observable decision as an event string: which IO each
// Select returns, the allotment every touched tenant sees, credits from
// Complete, orphan counts from Unregister. Two drivers fed the same script
// must produce identical logs for the schedulers to count as equivalent.
type drrDriver struct {
	d        *DRR
	tenants  []*nvme.Tenant
	inflight []*nvme.IO
	seq      int
	log      []string
}

func newDriver(cfg Config, nTenants int) *drrDriver {
	dr := &drrDriver{d: New(cfg, plainWeight)}
	for i := 0; i < nTenants; i++ {
		t := nvme.NewTenant(i, fmt.Sprintf("t%d", i))
		t.Class = i % 2 // exercised only when cfg has >1 class
		dr.tenants = append(dr.tenants, t)
		dr.d.Register(t)
	}
	return dr
}

func (dr *drrDriver) logf(format string, args ...any) {
	dr.log = append(dr.log, fmt.Sprintf(format, args...))
}

// step executes one scripted operation chosen by the (shared) RNG.
func (dr *drrDriver) step(rng *sim.RNG) {
	switch op := rng.Intn(10); {
	case op < 4: // enqueue a fresh IO
		t := dr.tenants[rng.Intn(len(dr.tenants))]
		size := []int{4 << 10, 32 << 10, 128 << 10}[rng.Intn(3)]
		prio := nvme.Priority(rng.Intn(int(nvme.NumPriorities)))
		io := mkIO(t, size, prio)
		io.Offset = int64(dr.seq)
		dr.seq++
		ok := dr.d.Enqueue(io)
		dr.logf("enqueue t=%d seq=%d ok=%v allot=%d", t.ID, io.Offset, ok, dr.allot(t))
	case op < 7: // select + commit
		io := dr.d.Select()
		if io == nil {
			dr.logf("select nil")
			return
		}
		dr.d.Commit(io)
		dr.inflight = append(dr.inflight, io)
		dr.logf("commit t=%d seq=%d allot=%d", io.Tenant.ID, io.Offset, dr.allot(io.Tenant))
	case op < 9: // complete the oldest (or a random) in-flight IO
		if len(dr.inflight) == 0 {
			dr.logf("complete none")
			return
		}
		i := rng.Intn(len(dr.inflight))
		io := dr.inflight[i]
		dr.inflight = append(dr.inflight[:i], dr.inflight[i+1:]...)
		credit := dr.d.Complete(io)
		dr.logf("complete t=%d seq=%d credit=%d", io.Tenant.ID, io.Offset, credit)
	default: // unregister + immediately re-register (churn)
		t := dr.tenants[rng.Intn(len(dr.tenants))]
		orphans := dr.d.Unregister(t)
		// Drop in-flight IOs of the removed tenant from our tracking the
		// same way both schedulers will: Complete tolerates them, so keep
		// them and let a later complete log credit=0 identically.
		dr.d.Register(t)
		dr.logf("churn t=%d orphans=%d allot=%d", t.ID, len(orphans), dr.allot(t))
	}
}

func (dr *drrDriver) allot(t *nvme.Tenant) int {
	s := dr.d.Slots(t)
	if s == nil {
		return -1
	}
	return s.Allot()
}

// snapshot records the end-of-run observable state.
func (dr *drrDriver) snapshot() string {
	s := fmt.Sprintf("queued=%d active=%d deferred=%d", dr.d.Queued(), dr.d.ActiveTenants(), dr.d.DeferredTenants())
	for _, t := range dr.tenants {
		s += fmt.Sprintf(" t%d.allot=%d", t.ID, dr.allot(t))
	}
	return s
}

// eagerOracle turns d into the reference scheduler the lazy path replaced:
// every redistribution pushes the new share to every registered tenant on
// the spot (the original O(tenants) loop), so no read of a tenant's
// allotment can ever be stale — mid-operation ones included.
func eagerOracle(d *DRR) {
	d.afterRedistribute = func() {
		for _, ts := range d.tenants {
			ts.slots.SetAllot(d.per)
			ts.allotGen = d.gen
		}
	}
}

// TestLazyEagerDifferential pins the lazy epoch-stamped redistribution to
// byte-identical scheduling decisions against the eager oracle, across
// enqueue/dispatch/complete and tenant churn, in both the flat
// configuration and a two-class hierarchy.
func TestLazyEagerDifferential(t *testing.T) {
	for _, tc := range []struct {
		name    string
		weights []int
	}{
		{"flat", nil},
		{"two-class", []int{4, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.ClassWeights = tc.weights
			lazy := newDriver(cfg, 12)
			eager := newDriver(cfg, 12)
			eagerOracle(eager.d)

			// Identical op streams: fork one seed into two identical RNGs.
			rngL := sim.NewRNG(0xd1ffe7)
			rngE := sim.NewRNG(0xd1ffe7)
			const steps = 60000
			for i := 0; i < steps; i++ {
				lazy.step(rngL)
				eager.step(rngE)
				if lazy.log[i] != eager.log[i] {
					t.Fatalf("step %d diverged:\n  lazy:  %s\n  eager: %s", i, lazy.log[i], eager.log[i])
				}
			}
			if ls, es := lazy.snapshot(), eager.snapshot(); ls != es {
				t.Fatalf("final state diverged:\n  lazy:  %s\n  eager: %s", ls, es)
			}
		})
	}
}

// TestStatsAccessorsO1Counters cross-checks the maintained counters against
// ground truth computed by scanning, over a random op sequence.
func TestStatsAccessorsO1Counters(t *testing.T) {
	d := New(DefaultConfig(), plainWeight)
	rng := sim.NewRNG(7)
	tenants := make([]*nvme.Tenant, 16)
	for i := range tenants {
		tenants[i] = nvme.NewTenant(i, "t")
		d.Register(tenants[i])
	}
	var inflight []*nvme.IO
	for i := 0; i < 20000; i++ {
		switch rng.Intn(3) {
		case 0:
			d.Enqueue(mkIO(tenants[rng.Intn(len(tenants))], 128<<10, nvme.PriorityNormal))
		case 1:
			if io := d.Select(); io != nil {
				d.Commit(io)
				inflight = append(inflight, io)
			}
		default:
			if len(inflight) > 0 {
				j := rng.Intn(len(inflight))
				io := inflight[j]
				inflight = append(inflight[:j], inflight[j+1:]...)
				d.Complete(io)
			}
		}
		// Ground truth by scanning (test-only).
		queued, activeN, deferredN := 0, 0, 0
		for _, ts := range d.tenants {
			queued += ts.queued
			switch ts.where {
			case active:
				activeN++
			case deferred:
				deferredN++
			}
		}
		if d.Queued() != queued || d.ActiveTenants() != activeN || d.DeferredTenants() != deferredN {
			t.Fatalf("step %d: counters (q=%d a=%d d=%d) != scan (q=%d a=%d d=%d)",
				i, d.Queued(), d.ActiveTenants(), d.DeferredTenants(), queued, activeN, deferredN)
		}
	}
}

// TestHierarchyClassWeightedShare asserts the class layer's DRR fairness:
// two always-backlogged classes with weights 3:1 should split dispatched
// bytes ~3:1 even though each class holds equally hungry tenants.
func TestHierarchyClassWeightedShare(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ClassWeights = []int{3, 1}
	d := New(cfg, plainWeight)
	var tenants []*nvme.Tenant
	for i := 0; i < 8; i++ {
		tn := nvme.NewTenant(i, "t")
		tn.Class = i % 2
		tenants = append(tenants, tn)
		d.Register(tn)
	}
	classBytes := map[int]int{}
	outstanding := map[*nvme.Tenant]int{}
	for n := 0; n < 4000; n++ {
		// Keep every tenant backlogged (closed loop, complete instantly).
		for _, tn := range tenants {
			if outstanding[tn] < 4 {
				d.Enqueue(mkIO(tn, 128<<10, nvme.PriorityNormal))
				outstanding[tn]++
			}
		}
		io := d.Select()
		if io == nil {
			break
		}
		d.Commit(io)
		outstanding[io.Tenant]--
		classBytes[io.Tenant.Class] += io.Size
		d.Complete(io)
	}
	if classBytes[0] == 0 || classBytes[1] == 0 {
		t.Fatalf("a class starved: %v", classBytes)
	}
	ratio := float64(classBytes[0]) / float64(classBytes[1])
	if ratio < 2.3 || ratio > 3.9 {
		t.Fatalf("class byte ratio = %.2f, want ~3 (%v)", ratio, classBytes)
	}
}

// TestHierarchyClassIsolation: a class whose tenants go idle must leave the
// ring so the remaining class gets the full device, and rejoin cleanly.
func TestHierarchyClassIsolation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ClassWeights = []int{1, 1}
	d := New(cfg, plainWeight)
	a, b := nvme.NewTenant(0, "a"), nvme.NewTenant(1, "b")
	b.Class = 1
	d.Register(a)
	d.Register(b)

	d.Enqueue(mkIO(a, 4096, nvme.PriorityNormal))
	io := d.Select()
	if io == nil || io.Tenant != a {
		t.Fatal("lone class-0 tenant should dispatch")
	}
	d.Commit(io)
	d.Complete(io)
	if d.ClassActive(0) != 0 || d.ClassActive(1) != 0 {
		t.Fatalf("classes not drained: %d %d", d.ClassActive(0), d.ClassActive(1))
	}
	// Class 1 wakes after its class emptied earlier.
	d.Enqueue(mkIO(b, 4096, nvme.PriorityNormal))
	io = d.Select()
	if io == nil || io.Tenant != b {
		t.Fatal("class-1 tenant should dispatch after rejoin")
	}
	d.Commit(io)
	d.Complete(io)
}

// TestFlatModeMatchesSingleClassHierarchy: explicit one-class ClassWeights
// must behave exactly like the nil default (both are flat).
func TestFlatModeMatchesSingleClassHierarchy(t *testing.T) {
	cfgA := DefaultConfig()
	cfgB := DefaultConfig()
	cfgB.ClassWeights = []int{7} // weight irrelevant when flat
	da := newDriver(cfgA, 6)
	db := newDriver(cfgB, 6)
	ra, rb := sim.NewRNG(42), sim.NewRNG(42)
	for i := 0; i < 20000; i++ {
		da.step(ra)
		db.step(rb)
		if da.log[i] != db.log[i] {
			t.Fatalf("step %d diverged:\n  nil:  %s\n  [7]:  %s", i, da.log[i], db.log[i])
		}
	}
}
