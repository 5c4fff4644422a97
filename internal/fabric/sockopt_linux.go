//go:build linux

package fabric

import "syscall"

// windowCC is the Control of the target's listener and of the initiator's
// dialer: it asks for a window-based congestion control, which a dialled
// socket then has, and an accepted one inherits, from its first segment on.
// Both directions are closed-loop bursts — a writev of queued responses or a
// Write of queued commands, then silence until the peer answers — and a
// pacing controller (BBR, where a host makes it the default) releases the
// later segments of each burst on a bandwidth estimate that app-limited
// bursts never refresh: one loopback connection in five then runs 25-30%
// slower than its siblings for as long as it lives (CHANGES.md, PR 15, has
// the measurements). Setting the option on the accepted socket is too late:
// BBR has turned pacing on by then and it stays on under the next controller.
// Best effort: where neither name is allowed the host's default stands.
func windowCC(_, _ string, c syscall.RawConn) error {
	return c.Control(func(fd uintptr) {
		for _, cc := range [...]string{"cubic", "reno"} {
			if syscall.SetsockoptString(int(fd), syscall.IPPROTO_TCP, syscall.TCP_CONGESTION, cc) == nil {
				return
			}
		}
	})
}
