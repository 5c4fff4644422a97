package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestGroupOneHeaderPerFamily(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.CounterFunc("ops_total", L("shard", "0"), func() int64 { return 3 })
	b.CounterFunc("ops_total", L("shard", "1"), func() int64 { return 4 })
	a.Help("ops_total", "operations")
	a.GaugeFunc("depth", L("shard", "0"), func() float64 { return 7 })

	var sb strings.Builder
	if err := NewGroup(a, b).WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if n := strings.Count(out, "# TYPE ops_total counter"); n != 1 {
		t.Fatalf("ops_total TYPE header appears %d times, want 1:\n%s", n, out)
	}
	if n := strings.Count(out, "# HELP ops_total operations"); n != 1 {
		t.Fatalf("ops_total HELP header appears %d times, want 1:\n%s", n, out)
	}
	for _, line := range []string{
		`ops_total{shard="0"} 3`,
		`ops_total{shard="1"} 4`,
		`depth{shard="0"} 7`,
	} {
		if !strings.Contains(out, line) {
			t.Fatalf("missing %q in:\n%s", line, out)
		}
	}
	// Families are sorted; within ops_total, member order holds.
	if strings.Index(out, "# TYPE depth") > strings.Index(out, "# TYPE ops_total") {
		t.Fatalf("families not sorted by name:\n%s", out)
	}
	if strings.Index(out, `shard="0"} 3`) > strings.Index(out, `shard="1"} 4`) {
		t.Fatalf("member order not preserved within family:\n%s", out)
	}
}

func TestGroupSnapshotSumsDuplicates(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.CounterFunc("ops_total", "", func() int64 { return 10 })
	b.CounterFunc("ops_total", "", func() int64 { return 5 })
	b.CounterFunc("errs_total", "", func() int64 { return 2 })
	snap := NewGroup(a, b).Snapshot()
	if snap["ops_total"] != 15 {
		t.Fatalf("ops_total = %v, want 15 (summed across members)", snap["ops_total"])
	}
	if snap["errs_total"] != 2 {
		t.Fatalf("errs_total = %v, want 2", snap["errs_total"])
	}
}

// countingLocker records acquisitions so the test can prove each member's
// GatherLock is taken (and balanced) during a group render.
type countingLocker struct {
	mu     sync.Mutex
	locks  int
	unlock int
}

func (l *countingLocker) Lock()   { l.mu.Lock(); l.locks++ }
func (l *countingLocker) Unlock() { l.unlock++; l.mu.Unlock() }

func TestGroupHoldsEachMemberGatherLock(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	la, lb := &countingLocker{}, &countingLocker{}
	a.GatherLock, b.GatherLock = la, lb
	a.CounterFunc("x_total", "", func() int64 { return 1 })
	b.CounterFunc("x_total", "", func() int64 { return 1 })
	var sb strings.Builder
	if err := NewGroup(a, b).WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if la.locks != 1 || la.unlock != 1 || lb.locks != 1 || lb.unlock != 1 {
		t.Fatalf("gather locks not taken once each: a=%d/%d b=%d/%d",
			la.locks, la.unlock, lb.locks, lb.unlock)
	}
}
