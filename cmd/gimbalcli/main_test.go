package main

import "testing"

// TestCheckLoad: the load flags the workers would divide by, draw from or
// start none of are rejected before anything is dialed.
func TestCheckLoad(t *testing.T) {
	for _, c := range []struct {
		size      int
		span      int64
		qd, conns int
		ok        bool
	}{
		{4096, 1 << 30, 32, 1, true},
		{131072, 131072, 1, 4, true}, // a span of exactly one IO
		{0, 1 << 30, 32, 1, false},   // size 0 divides by zero
		{-4096, 1 << 30, 32, 1, false},
		{512, 1 << 30, 32, 1, false}, // not whole 4 KiB blocks
		{4096, 0, 32, 1, false},      // no slot to draw from
		{8192, 4096, 32, 1, false},
		{4096, 1 << 30, 0, 1, false},
		{4096, 1 << 30, 32, 0, false},
	} {
		err := checkLoad(c.size, c.span, c.qd, c.conns)
		if (err == nil) != c.ok {
			t.Errorf("checkLoad(size %d, span %d, qd %d, conns %d) = %v, want ok=%v", c.size, c.span, c.qd, c.conns, err, c.ok)
		}
	}
}
