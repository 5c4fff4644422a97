package main

import (
	"math"
	"testing"
	"time"

	"gimbal/internal/obs"
	"gimbal/internal/ssd"
)

// TestDeviceParams: -ssds below one and a -capacity below one page are
// usage errors, found before the stack is built.
func TestDeviceParams(t *testing.T) {
	page := int64(ssd.DCT983().PageSize)
	for _, c := range []struct {
		ssds     int
		capacity int64
		ok       bool
	}{
		{4, 2 << 30, true}, // the defaults
		{1, page, true},    // one page
		{0, 2 << 30, false},
		{-1, 2 << 30, false},
		{1, 0, false}, // logged "preconditioning…", then failed in BuildStack
		{1, page - 1, false},
		{1, -page, false},
	} {
		p, err := deviceParams(c.ssds, c.capacity)
		if (err == nil) != c.ok {
			t.Errorf("deviceParams(%d, %d) = %v, want ok=%v", c.ssds, c.capacity, err, c.ok)
		}
		if err == nil && p.UsableBytes != c.capacity {
			t.Errorf("deviceParams(%d, %d): UsableBytes %d", c.ssds, c.capacity, p.UsableBytes)
		}
	}
}

// TestSLOObjective: -slo-goal must be a fraction strictly between 0 and 1,
// whether or not -slo-target arms the engine, and the engine is armed only
// by a positive -slo-target.
func TestSLOObjective(t *testing.T) {
	for _, c := range []struct {
		target time.Duration
		goal   float64
		ok     bool
		armed  bool
	}{
		{0, 0.999, true, false}, // the defaults: no engine
		{time.Millisecond, 0.999, true, true},
		{time.Millisecond, 0.5, true, true},
		{-time.Millisecond, 0.99, true, false},
		{time.Millisecond, 1.5, false, false}, // ran with 0.999 in its place
		{time.Millisecond, 1, false, false},
		{time.Millisecond, 0, false, false},
		{time.Millisecond, -0.5, false, false},
		{time.Millisecond, math.NaN(), false, false},
		{0, 1.5, false, false},
	} {
		slo, err := sloObjective(c.target, c.goal)
		if (err == nil) != c.ok || (slo != nil) != c.armed {
			t.Errorf("sloObjective(%v, %v) = %v, %v; want ok=%v armed=%v", c.target, c.goal, slo, err, c.ok, c.armed)
			continue
		}
		if slo != nil && (slo.LatencyTargetNs != int64(c.target) || slo.LatencyGoal != c.goal) {
			t.Errorf("sloObjective(%v, %v) = %+v", c.target, c.goal, *slo)
		}
	}
}

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
