package main

import "testing"

// TestCheckLoad: the load flags the workers would divide by, draw from or
// start none of, an op they would not run and a scheme no target serves
// are rejected before anything is dialed.
func TestCheckLoad(t *testing.T) {
	for _, c := range []struct {
		scheme    string
		op        string
		size      int
		span      int64
		qd, conns int
		ok        bool
	}{
		{"gimbal", "read", 4096, 1 << 30, 32, 1, true},
		{"gimbal", "read", 131072, 131072, 1, 4, true}, // a span of exactly one IO
		{"gimbal", "read", 0, 1 << 30, 32, 1, false},   // size 0 divides by zero
		{"gimbal", "read", -4096, 1 << 30, 32, 1, false},
		{"gimbal", "read", 512, 1 << 30, 32, 1, false}, // not whole 4 KiB blocks
		{"gimbal", "read", 4096, 0, 32, 1, false},      // no slot to draw from
		{"gimbal", "read", 8192, 4096, 32, 1, false},
		{"gimbal", "read", 4096, 1 << 30, 0, 1, false},
		{"gimbal", "read", 4096, 1 << 30, 32, 0, false},
		{"gimbal", "write", 4096, 1 << 30, 32, 1, true},
		{"gimbal", "wrtie", 4096, 1 << 30, 32, 1, false}, // ran reads and printed "wrtie"
		{"gimbal", "", 4096, 1 << 30, 32, 1, false},
		{"gimbal", "READ", 4096, 1 << 30, 32, 1, false},
		{"vanilla", "read", 4096, 1 << 30, 32, 1, true},
		{"PARDA", "read", 4096, 1 << 30, 32, 1, true},  // case-blind, like gimbald's -scheme
		{"gimbl", "read", 4096, 1 << 30, 32, 1, false}, // exited 1 through log.Fatal, no usage
	} {
		_, err := checkLoad(c.scheme, c.op, c.size, c.span, c.qd, c.conns)
		if (err == nil) != c.ok {
			t.Errorf("checkLoad(scheme %q, op %q, size %d, span %d, qd %d, conns %d) = %v, want ok=%v",
				c.scheme, c.op, c.size, c.span, c.qd, c.conns, err, c.ok)
		}
	}
}
