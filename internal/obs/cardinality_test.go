package obs

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// TestRegistryCardinality100kTenants is the tenant-scale contract for the
// registry: 100k per-tenant label sets against a small series budget must
// keep distinct series at the budget, collapse the whole tail into one
// overflow series that loses no counts, gather without allocating, and
// keep the scrape size proportional to the budget — not the population.
func TestRegistryCardinality100kTenants(t *testing.T) {
	const (
		pop    = 100_000
		budget = 4096
	)
	r := NewRegistry()
	r.SetMaxSeries(budget)

	counts := make([]int64, pop)
	for i := range counts {
		r.CounterFunc("tenant_completed_ops_total", L("tenant", strconv.Itoa(i)), func() int64 { return counts[i] })
		counts[i] = 1
	}

	series, overflowSeries := 0, 0
	var overflowVal float64
	for _, s := range r.Gather() {
		if s.Name != "tenant_completed_ops_total" {
			t.Fatalf("unexpected metric %q", s.Name)
		}
		if strings.Contains(string(s.Labels), `overflow="true"`) {
			overflowSeries++
			overflowVal = s.Value
			continue
		}
		series++
		if s.Value != 1 {
			t.Fatalf("in-budget series %s = %v, want 1", s.Labels, s.Value)
		}
	}
	if series != budget {
		t.Fatalf("distinct series = %d, want budget %d", series, budget)
	}
	if overflowSeries != 1 {
		t.Fatalf("overflow series = %d, want exactly 1", overflowSeries)
	}
	if overflowVal != pop-budget {
		t.Fatalf("overflow absorbed %v increments, want %d", overflowVal, pop-budget)
	}

	// Every count stays live: a tail tenant's increments land on the
	// shared overflow series, in-budget tenants keep their identity.
	counts[pop-1] += 5
	counts[0] += 2
	snap := r.Snapshot()
	if v := snap[`tenant_completed_ops_total{overflow="true"}`]; v != pop-budget+5 {
		t.Fatalf("overflow after tail Add(5) = %v, want %d", v, pop-budget+5)
	}
	if v := snap[`tenant_completed_ops_total{tenant="0"}`]; v != 3 {
		t.Fatalf("tenant 0 after Add(2) = %v, want 3", v)
	}

	// Steady-state collection reuses its scratch: zero allocations per
	// Gather even with the budget's worth of live series.
	r.Gather()
	if allocs := testing.AllocsPerRun(10, func() { r.Gather() }); allocs != 0 {
		t.Fatalf("Gather allocates %.0f times per run at steady state, want 0", allocs)
	}

	// Scrape size is a function of the budget, not the population: the
	// exposition holds one line per in-budget series, the overflow line,
	// and a constant family header.
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Count(buf.Bytes(), []byte("\n"))
	if lines > budget+8 {
		t.Fatalf("scrape has %d lines for %d tenants, want <= budget %d + headers", lines, pop, budget)
	}
}
