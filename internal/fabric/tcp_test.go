package fabric

import (
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
func (g *recordingGater) OnCompletion(_ nvme.Completion, lat int64) {
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
