//go:build linux

package fabric

import (
	"net"
	"syscall"
	"testing"
	"unsafe"

	"gimbal/internal/nvme"
)

// congestionControl reads TCP_CONGESTION (the syscall package has the
// setter only).
func congestionControl(t *testing.T, conn net.Conn) string {
	t.Helper()
	rc, err := conn.(*net.TCPConn).SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var buf [16]byte // TCP_CA_NAME_MAX
	n := uint32(len(buf))
	var errno syscall.Errno
	rc.Control(func(fd uintptr) {
		_, _, errno = syscall.Syscall6(syscall.SYS_GETSOCKOPT, fd, syscall.IPPROTO_TCP, syscall.TCP_CONGESTION,
			uintptr(unsafe.Pointer(&buf[0])), uintptr(unsafe.Pointer(&n)), 0)
	})
	if errno != 0 {
		t.Fatal(errno)
	}
	name := buf[:n]
	for i, b := range name {
		if b == 0 {
			name = name[:i]
			break
		}
	}
	return string(name)
}

// TestReactorSocketsAreNotPaced: both ends of a connection — the socket the
// target sends responses on and the one DialTCP sends commands on — run the
// window-based congestion control they asked for, whatever the host's
// default is.
func TestReactorSocketsAreNotPaced(t *testing.T) {
	srv, _ := startReactors(t, SchemeVanilla, 1, 1)
	c, err := DialTCP(srv.Addr(), SchemeVanilla)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.DoIO(nvme.OpRead, 0, 0, 4096, nil); err != nil {
		t.Fatal(err) // a round trip: the connection is registered
	}
	srv.connMu.Lock()
	defer srv.connMu.Unlock()
	if len(srv.conns) != 1 {
		t.Fatalf("%d server connections, want 1", len(srv.conns))
	}
	for rc := range srv.conns {
		for side, conn := range map[string]net.Conn{"accepted": rc.conn, "dialled": c.conn} {
			if cc := congestionControl(t, conn); cc != "cubic" && cc != "reno" {
				t.Errorf("%s socket runs %q, want cubic or reno", side, cc)
			}
		}
	}
}
