package fabric

import (
	"testing"

	"gimbal/internal/nvme"
)

// benchTCPClient prices the initiator: b.N commands through TCPClient.Go at
// a fixed queue depth against a NULL reactor server in the same process, so
// ns/op is the client plus the target's transport (the perf ledger's live
// client is raw capsules and sees none of the former). Run at -cpu 1,2: one
// P serializes client and target, two let them overlap.
func benchTCPClient(b *testing.B, op nvme.Opcode, size, qd int) {
	srv, _ := startReactors(b, SchemeVanilla, 1, 1)
	c, err := DialTCP(srv.Addr(), SchemeVanilla)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	var data []byte
	if op == nvme.OpWrite {
		data = make([]byte, size)
	}
	wait := func(ch <-chan callResult) {
		if res := <-ch; res.err != nil || res.rsp.Status != nvme.StatusOK {
			b.Fatalf("%v: %v, %+v", op, res.err, res.rsp)
		}
	}
	window := make([]<-chan callResult, qd)
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ch := window[i%qd]; ch != nil {
			wait(ch)
		}
		window[i%qd] = c.Go(&CommandCapsule{
			Opcode: op, SLBA: uint64(i%1024) * uint64(size/4096), Length: uint32(size), Data: data,
		})
	}
	for _, ch := range window {
		if ch != nil {
			wait(ch)
		}
	}
}

// The sizes are the paper's small and large IO and two between; the depths
// keep about 128 KiB to 512 KiB in flight, as a tenant of each kind would.
func BenchmarkTCPClientRead4K(b *testing.B)    { benchTCPClient(b, nvme.OpRead, 4096, 32) }
func BenchmarkTCPClientRead128K(b *testing.B)  { benchTCPClient(b, nvme.OpRead, 128<<10, 4) }
func BenchmarkTCPClientWrite4K(b *testing.B)   { benchTCPClient(b, nvme.OpWrite, 4096, 32) }
func BenchmarkTCPClientWrite16K(b *testing.B)  { benchTCPClient(b, nvme.OpWrite, 16<<10, 16) }
func BenchmarkTCPClientWrite64K(b *testing.B)  { benchTCPClient(b, nvme.OpWrite, 64<<10, 4) }
func BenchmarkTCPClientWrite128K(b *testing.B) { benchTCPClient(b, nvme.OpWrite, 128<<10, 4) }
