package main

import (
	"testing"
	"time"

	"gimbal/internal/obs"
)

// TestTracerConfig: the trace flags attach a tracer only when it has a ring
// and a trigger that can fire.
func TestTracerConfig(t *testing.T) {
	for _, c := range []struct {
		name     string
		capacity int
		slow     time.Duration
		nth      int
		want     *obs.TracerConfig
	}{
		{"defaults", 8192, time.Millisecond, 64, &obs.TracerConfig{Capacity: 8192, SlowNs: 1_000_000, SampleEvery: 64}},
		{"every IO", 1024, 0, 1, &obs.TracerConfig{Capacity: 1024, SampleEvery: 1}},
		{"slow only", 1024, time.Millisecond, 0, &obs.TracerConfig{Capacity: 1024, SlowNs: 1_000_000}},
		{"no ring", 0, time.Millisecond, 64, nil},
		{"no trigger", 8192, 0, 0, nil},
		{"negative triggers", 8192, -time.Millisecond, -1, nil},
	} {
		got := tracerConfig(c.capacity, c.slow, c.nth)
		if (got == nil) != (c.want == nil) || got != nil && *got != *c.want {
			t.Errorf("%s: tracerConfig(%d, %v, %d) = %+v, want %+v", c.name, c.capacity, c.slow, c.nth, got, c.want)
		}
	}
}
