package fabric

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"gimbal/internal/nvme"
)

type netError struct{ s nvme.Status }

func (e *netError) Error() string { return "unexpected status" }

func TestTCPInvalidRequestGetsErrorStatus(t *testing.T) {
	srv := startReactorsSSD(t, SchemeVanilla, 1, 1)
	c, err := DialTCP(srv.Addr(), SchemeVanilla)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Unaligned length.
	rsp, err := c.Do(&CommandCapsule{Opcode: nvme.OpRead, NSID: 0, SLBA: 0, Length: 100})
	if err != nil {
		t.Fatal(err)
	}
	if rsp.Status == nvme.StatusOK {
		t.Fatal("unaligned read should fail")
	}
	// Bad namespace.
	rsp, err = c.Do(&CommandCapsule{Opcode: nvme.OpRead, NSID: 9, Length: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if rsp.Status == nvme.StatusOK {
		t.Fatal("bad namespace should fail")
	}
}

func TestTCPClientFailsPendingOnClose(t *testing.T) {
	srv := startReactorsSSD(t, SchemeVanilla, 1, 1)
	c, err := DialTCP(srv.Addr(), SchemeVanilla)
	if err != nil {
		t.Fatal(err)
	}
	ch := c.Go(&CommandCapsule{Opcode: nvme.OpRead, NSID: 0, Length: 4096})
	// Give the request a chance to leave, then kill the server.
	res := <-ch
	_ = res
	srv.Close()
	c.conn.Close()
	select {
	case res := <-c.Go(&CommandCapsule{Opcode: nvme.OpRead, NSID: 0, Length: 4096}):
		if res.err == nil {
			// The write can race ahead of the close; the next call must fail.
			res2 := <-c.Go(&CommandCapsule{Opcode: nvme.OpRead, NSID: 0, Length: 4096})
			if res2.err == nil {
				t.Fatal("calls after close should fail")
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("call after close hung")
	}
}

// recordingGater admits everything and keeps the latencies it is shown.
type recordingGater struct {
	mu   sync.Mutex
	lats []int64
}

func (g *recordingGater) CanSubmit() bool { return true }
func (g *recordingGater) OnSubmit()       {}
func (g *recordingGater) Headroom() int   { return 1 }
func (g *recordingGater) OnCompletion(_ uint32, lat int64) {
	g.mu.Lock()
	g.lats = append(g.lats, lat)
	g.mu.Unlock()
}

// TestTCPClientMeasuresLatency: the client-side gate is fed the measured
// round trip of every command — PARDA's window runs on nothing else. (The
// client used to pass 0, so a PARDA window over TCP only ever grew.)
func TestTCPClientMeasuresLatency(t *testing.T) {
	srv := startReactorsSSD(t, SchemeVanilla, 1, 1)
	c, err := DialTCP(srv.Addr(), SchemeParda)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	g := &recordingGater{}
	c.mu.Lock()
	c.gate = g
	c.mu.Unlock()

	const n = 16
	start := time.Now()
	for i := 0; i < n; i++ {
		rsp, err := c.DoIO(nvme.OpRead, 0, int64(i)*4096, 4096, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rsp.Status != nvme.StatusOK {
			t.Fatalf("read %d status %v", i, rsp.Status)
		}
	}
	wall := int64(time.Since(start))
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.lats) != n {
		t.Fatalf("gate saw %d completions, want %d", len(g.lats), n)
	}
	var sum int64
	for i, lat := range g.lats {
		if lat <= 0 {
			t.Fatalf("completion %d reported latency %d to the gate, want > 0", i, lat)
		}
		sum += lat
	}
	// Sequential commands: their round trips cannot add up to more than
	// the time the loop took.
	if sum > wall {
		t.Fatalf("latencies sum to %v over a %v run", time.Duration(sum), time.Duration(wall))
	}
}

// startPeer listens on loopback and runs serve on the first connection, in
// place of a target: the initiator's tests need a peer that records what
// arrives, or that stops reading. stop closes both and waits for serve.
func startPeer(t *testing.T, serve func(net.Conn)) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conns := make(chan net.Conn, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		conns <- conn
		serve(conn)
	}()
	return ln.Addr().String(), func() {
		ln.Close()
		select {
		case conn := <-conns:
			conn.Close()
		default:
		}
		<-done
	}
}

// TestTCPClientOrderAndOwnership: commands reach the wire in the order each
// caller submitted them, whatever other callers interleave, and every
// response's Data is the receiver's alone — the client reads it into a
// buffer it allocated for that response, so writing to one must not show in
// another.
func TestTCPClientOrderAndOwnership(t *testing.T) {
	const callers, perCaller, window, payload = 8, 1250, 16, 512
	// The peer answers every command with payload bytes of its sequence
	// number, and reports the first command that overtook an earlier one of
	// the same caller. A command's SLBA is caller<<32 | sequence.
	misordered := make(chan string, 1)
	addr, stop := startPeer(t, func(conn net.Conn) {
		fr, w := newCapsuleReader(conn, rxBufSize), bufio.NewWriter(conn)
		var next [callers]uint64
		var cmd CommandCapsule
		var out []byte
		for {
			if err := fr.readCommand(&cmd); err != nil {
				return
			}
			caller, seq := cmd.SLBA>>32, cmd.SLBA&(1<<32-1)
			if seq != next[caller] {
				select {
				case misordered <- fmt.Sprintf("caller %d: command %d arrived where %d was due", caller, seq, next[caller]):
				default:
				}
			}
			next[caller] = seq + 1
			out = binary.BigEndian.AppendUint32(out[:0], uint32(ResponseWireLen(payload)))
			out = AppendResponse(out, &ResponseCapsule{CID: cmd.CID, Data: bytes.Repeat([]byte{byte(seq)}, payload)})
			w.Write(out)
			if fr.buf.Buffered() == 0 {
				w.Flush()
			}
		}
	})
	defer stop()
	c, err := DialTCP(addr, SchemeVanilla)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	for caller := 0; caller < callers; caller++ {
		wg.Add(1)
		go func(caller uint64) {
			defer wg.Done()
			var chans [window]<-chan callResult
			var held [window]*ResponseCapsule
			collect := func(seq uint64) bool {
				res := <-chans[seq%window]
				if res.err != nil {
					t.Errorf("caller %d command %d: %v", caller, seq, res.err)
					return false
				}
				// The one held in this place is done with: scribble on it. The
				// others, received before and after it, must not change.
				if old := held[seq%window]; old != nil {
					for i := range old.Data {
						old.Data[i] = 0xee
					}
				}
				held[seq%window] = res.rsp
				for i := uint64(0); i < window && i <= seq; i++ {
					rsp, at := held[(seq-i)%window], seq-i
					if len(rsp.Data) != payload || bytes.Count(rsp.Data, []byte{byte(at)}) != payload {
						t.Errorf("caller %d: response %d holds %d bytes, first %#x, after a later one was received or another overwritten",
							caller, at, len(rsp.Data), rsp.Data[0])
						return false
					}
				}
				return true
			}
			for seq := uint64(0); seq < perCaller+window; seq++ {
				if seq >= window && !collect(seq-window) {
					return
				}
				if seq < perCaller {
					chans[seq%window] = c.Go(&CommandCapsule{Opcode: nvme.OpRead, SLBA: caller<<32 | seq, Length: payload})
				}
			}
		}(uint64(caller))
	}
	wg.Wait()
	select {
	case msg := <-misordered:
		t.Error(msg)
	default:
	}
}

// TestTCPClientCloseFailsPendingOnce: Close with calls outstanding — some on
// the wire, the rest queued behind a writer that a peer which never reads has
// blocked — fails each of them exactly once, returns with both of the
// client's goroutines gone, and the calls that built the queue never waited
// for the peer.
func TestTCPClientCloseFailsPendingOnce(t *testing.T) {
	baseline := runtime.NumGoroutine()
	hold := make(chan struct{})
	addr, stop := startPeer(t, func(conn net.Conn) {
		conn.(*net.TCPConn).SetReadBuffer(64 << 10)
		<-hold
	})
	c, err := DialTCP(addr, SchemeVanilla)
	if err != nil {
		t.Fatal(err)
	}
	c.conn.(*net.TCPConn).SetWriteBuffer(64 << 10)
	// 16 MB of writes: far more than the socket buffers between the two take.
	const calls = 256
	data := make([]byte, 64<<10)
	chans := make([]<-chan callResult, calls)
	submitted := make(chan struct{})
	go func() {
		defer close(submitted)
		for i := range chans {
			chans[i] = c.Go(&CommandCapsule{Opcode: nvme.OpWrite, SLBA: uint64(i) * 16, Length: uint32(len(data)), Data: data})
		}
	}()
	select {
	case <-submitted:
	case <-time.After(10 * time.Second):
		t.Fatal("Go blocked behind a peer that is not reading")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	for i, ch := range chans {
		select {
		case res := <-ch:
			if res.err == nil {
				t.Fatalf("call %d completed without a peer to answer it: %+v", i, res.rsp)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("call %d still pending after Close", i)
		}
	}
	if res := <-c.Go(&CommandCapsule{Opcode: nvme.OpRead, Length: 4096}); res.err == nil {
		t.Fatal("a call after Close was accepted")
	}
	close(hold)
	stop()
	// A second result for any call would have blocked its sender on the
	// one-slot channel, and shows here as a goroutine that never ends.
	expectGoroutines(t, baseline)
	for i, ch := range chans {
		select {
		case res := <-ch:
			t.Fatalf("call %d got a second result: %+v", i, res)
		default:
		}
	}
}
