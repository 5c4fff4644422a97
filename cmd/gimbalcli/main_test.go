package main

import "testing"

// TestCheckLoad: the load flags the workers would divide by, draw from or
// start none of, and an op they would not run, are rejected before anything
// is dialed.
func TestCheckLoad(t *testing.T) {
	for _, c := range []struct {
		op        string
		size      int
		span      int64
		qd, conns int
		ok        bool
	}{
		{"read", 4096, 1 << 30, 32, 1, true},
		{"read", 131072, 131072, 1, 4, true}, // a span of exactly one IO
		{"read", 0, 1 << 30, 32, 1, false},   // size 0 divides by zero
		{"read", -4096, 1 << 30, 32, 1, false},
		{"read", 512, 1 << 30, 32, 1, false}, // not whole 4 KiB blocks
		{"read", 4096, 0, 32, 1, false},      // no slot to draw from
		{"read", 8192, 4096, 32, 1, false},
		{"read", 4096, 1 << 30, 0, 1, false},
		{"read", 4096, 1 << 30, 32, 0, false},
		{"write", 4096, 1 << 30, 32, 1, true},
		{"wrtie", 4096, 1 << 30, 32, 1, false}, // ran reads and printed "wrtie"
		{"", 4096, 1 << 30, 32, 1, false},
		{"READ", 4096, 1 << 30, 32, 1, false},
	} {
		err := checkLoad(c.op, c.size, c.span, c.qd, c.conns)
		if (err == nil) != c.ok {
			t.Errorf("checkLoad(op %q, size %d, span %d, qd %d, conns %d) = %v, want ok=%v", c.op, c.size, c.span, c.qd, c.conns, err, c.ok)
		}
	}
}
