//go:build linux

package fabric

import "syscall"

// windowCC is the net.ListenConfig.Control of the target's listener: it
// asks for a window-based congestion control, which the accepted sockets
// inherit from their first segment on. The target's traffic is closed-loop
// bursts — a writev of queued responses, then silence until the initiator
// answers — and a pacing controller (BBR, where a host makes it the default)
// releases the later segments of each burst on a bandwidth estimate that
// app-limited bursts never refresh: a connection then runs at one of two
// speeds for as long as it lives. Measured over loopback at 4 KB reads,
// QD32: one connection in five 25-30% slower than its siblings, with the
// same syscalls and segments and the kernel's pacing timer (HRTIMER
// softirqs) firing only on the slow ones; none slow once the listener is
// not paced. Setting the option on the accepted socket is too late: BBR has
// turned pacing on by then and it stays on under the next controller. Best
// effort: where neither name is allowed the host's default stands.
func windowCC(_, _ string, c syscall.RawConn) error {
	return c.Control(func(fd uintptr) {
		for _, cc := range [...]string{"cubic", "reno"} {
			if syscall.SetsockoptString(int(fd), syscall.IPPROTO_TCP, syscall.TCP_CONGESTION, cc) == nil {
				return
			}
		}
	})
}
