package fabric

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
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

// BenchmarkReactorScaling is the live datapath's reactor sweep: eight raw
// pipelined connections, each keeping 32 4 KB reads in flight on its own
// namespace, against eight NULL SSDs on R reactors. b.N is IOs across all
// connections; IOPS is b.N over the timed run. Run it at -cpu 1,2,4,8:
// reactor scaling needs real cores, and at one P every shard timeshares one
// CPU, so the curve is flat by construction. Clients dial with the target's
// windowCC, so no connection is paced by a host-default BBR.
func BenchmarkReactorScaling(b *testing.B) {
	const ssds, conns, qd = 8, 8, 32
	for _, r := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("R=%d", r), func(b *testing.B) {
			srv, _ := startReactors(b, SchemeVanilla, ssds, r)
			cs := make([]net.Conn, conns)
			for i := range cs {
				conn, err := (&net.Dialer{Control: windowCC}).Dial("tcp", srv.Addr())
				if err != nil {
					b.Fatal(err)
				}
				defer conn.Close()
				cs[i] = conn
			}
			b.ResetTimer()
			var wg sync.WaitGroup
			for i, conn := range cs {
				n := b.N / conns
				if i < b.N%conns {
					n++
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := pipelineReads(conn, uint8(i%ssds), n, qd); err != nil {
						b.Error(err)
					}
				}()
			}
			wg.Wait()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "IOPS")
		})
	}
}

// pipelineReads keeps up to qd 4 KB reads of namespace nsid in flight on
// conn, one prebuilt frame replayed, until n have completed.
func pipelineReads(conn net.Conn, nsid uint8, n, qd int) error {
	cmd := AppendCommand(binary.BigEndian.AppendUint32(nil, cmdHeaderLen),
		&CommandCapsule{Opcode: nvme.OpRead, CID: 1, NSID: nsid, Length: 4096})
	rsp := make([]byte, 4+rspHeaderLen+4096)
	sent := 0
	for ; sent < n && sent < qd; sent++ {
		if _, err := conn.Write(cmd); err != nil {
			return err
		}
	}
	for done := 0; done < n; done++ {
		if _, err := io.ReadFull(conn, rsp); err != nil {
			return err
		}
		if sent < n {
			if _, err := conn.Write(cmd); err != nil {
				return err
			}
			sent++
		}
	}
	return nil
}
