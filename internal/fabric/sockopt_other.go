//go:build !linux

package fabric

import "syscall"

// windowCC is a no-op where the congestion control is not a socket option.
func windowCC(_, _ string, _ syscall.RawConn) error { return nil }
