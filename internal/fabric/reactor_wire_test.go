package fabric

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"gimbal/internal/nvme"
	"gimbal/internal/obs"
)

// expectResponse reads the next response from a raw connection and checks
// its CID, an OK status and its payload length.
func expectResponse(t *testing.T, r *bufio.Reader, cid, dataLen int) *ResponseCapsule {
	t.Helper()
	frame, err := readFrameInto(r, nil)
	if err != nil {
		t.Fatalf("response to command %d: %v", cid, err)
	}
	rsp, _, err := DecodeResponse(frame)
	if err != nil {
		t.Fatalf("response to command %d: %v", cid, err)
	}
	if int(rsp.CID) != cid || rsp.Status != nvme.StatusOK || len(rsp.Data) != dataLen {
		t.Fatalf("response to command %d: CID %d, status %v, %d bytes (want %d)", cid, rsp.CID, rsp.Status, len(rsp.Data), dataLen)
	}
	return rsp
}

// TestReactorWireMatchesEncoder: the target seals a response header and
// sends the payload by reference, in as many pieces as the zero slab makes
// it; what a client receives must be, byte for byte, the frame AppendResponse
// builds for the same capsule with a zero payload.
func TestReactorWireMatchesEncoder(t *testing.T) {
	const largest = maxReadLen &^ 4095 // page-aligned, as every IO must be
	for _, scheme := range []Scheme{SchemeVanilla, SchemeGimbal} {
		srv, _ := startReactors(t, scheme, 1, 1)
		conn := dialRaw(t, srv)
		r := bufio.NewReaderSize(conn, 256<<10)
		for i, tc := range []struct {
			name    string
			cmd     CommandCapsule
			status  nvme.Status
			dataLen int
		}{
			{"write", CommandCapsule{Opcode: nvme.OpWrite, Length: 4096, Data: make([]byte, 4096)}, nvme.StatusOK, 0},
			{"4 KiB", CommandCapsule{Opcode: nvme.OpRead, Length: 4 << 10}, nvme.StatusOK, 4 << 10},
			{"one slab", CommandCapsule{Opcode: nvme.OpRead, Length: uint32(len(zeroSlab))}, nvme.StatusOK, len(zeroSlab)},
			{"a slab and a page", CommandCapsule{Opcode: nvme.OpRead, Length: uint32(len(zeroSlab)) + 4096}, nvme.StatusOK, len(zeroSlab) + 4096},
			{"128 KiB", CommandCapsule{Opcode: nvme.OpRead, Length: 128 << 10}, nvme.StatusOK, 128 << 10},
			{"largest framed read", CommandCapsule{Opcode: nvme.OpRead, Length: largest}, nvme.StatusOK, largest},
			{"failed read", CommandCapsule{Opcode: nvme.OpRead, SLBA: nullCapacity / 4096, Length: 64 << 10}, nvme.StatusInvalidLBA, 0},
		} {
			tc.cmd.CID = uint16(100 + i)
			if _, err := conn.Write(appendCommandFrame(nil, &tc.cmd)); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, 4+rspHeaderLen+tc.dataLen)
			conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			if _, err := io.ReadFull(r, got); err != nil {
				t.Fatalf("%v, %s: %v", scheme, tc.name, err)
			}
			if r.Buffered() != 0 {
				t.Fatalf("%v, %s: %d bytes follow the response", scheme, tc.name, r.Buffered())
			}
			// The credit is the switch's to choose; everything else is given.
			credit := binary.BigEndian.Uint32(got[4+5:])
			want := AppendResponse(binary.BigEndian.AppendUint32(nil, uint32(rspHeaderLen+tc.dataLen)),
				&ResponseCapsule{CID: tc.cmd.CID, Status: tc.status, Credit: credit, Data: make([]byte, tc.dataLen)})
			if !bytes.Equal(got, want) {
				t.Errorf("%v, %s: wire differs from AppendResponse: header % x, want % x; payloads equal: %v", scheme,
					tc.name, got[:4+rspHeaderLen], want[:4+rspHeaderLen], bytes.Equal(got[4+rspHeaderLen:], want[4+rspHeaderLen:]))
			}
		}
	}
}

// TestReactorDrainPastIOVMax: responses queued behind a client that is not
// reading leave in one pass of the writer, whose writev then carries more
// iovecs (three per 128 KiB response) than the kernel takes in one call;
// every response still arrives intact. tx_writes says the pass was one of
// few: the batching factor is what the counter is for.
func TestReactorDrainPastIOVMax(t *testing.T) {
	srv, _ := startReactors(t, SchemeVanilla, 1, 1)
	reg := obs.NewRegistry()
	srv.AttachObs(obs.NewHub(reg), nil)
	conn := dialRaw(t, srv)
	const n, size = 400, 128 << 10 // 1200 iovecs against IOV_MAX = 1024
	var wire []byte
	for i := 0; i < n; i++ {
		wire = appendCommandFrame(wire, &CommandCapsule{Opcode: nvme.OpRead, CID: uint16(i), SLBA: uint64(i) * size / 4096, Length: size})
	}
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	// All of them completed, 50 MB that no socket buffer holds: the writer is
	// blocked with the rest queued behind it.
	for deadline := time.Now().Add(10 * time.Second); srv.ReactorStats()[0].TxCapsules < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d commands completed", srv.ReactorStats()[0].TxCapsules, n)
		}
	}
	r := bufio.NewReaderSize(conn, 256<<10)
	zeroes := make([]byte, size)
	for i := 0; i < n; i++ {
		if rsp := expectResponse(t, r, i, size); !bytes.Equal(rsp.Data, zeroes) {
			t.Fatalf("response %d: payload is not zeroes", i)
		}
	}
	st := srv.ReactorStats()[0]
	if st.TxCapsules != n || st.TxWrites < 1 || st.TxWrites > n/4 {
		t.Errorf("%d responses in %d writes, want %d in a few", st.TxCapsules, st.TxWrites, n)
	}
	if got := obs.SumMetric(reg.Snapshot(), "fabric_reactor_tx_writes"); got != float64(st.TxWrites) {
		t.Errorf("fabric_reactor_tx_writes = %v, /reactors says %d", got, st.TxWrites)
	}
	t.Logf("%d responses in %d writes", st.TxCapsules, st.TxWrites)
}

// TestReactorFrameAtBufferBoundary: a frame that exactly fills the reader's
// buffer is decoded in place, one byte more goes through scratch, and a
// reader waiting for the rest of either holds nothing back: the reads
// pipelined ahead of the write are answered while half of the write is
// still to come. The stream arrives in 1–7-byte writes around every frame
// boundary, so prefixes and headers come in pieces.
func TestReactorFrameAtBufferBoundary(t *testing.T) {
	srv, _ := startReactors(t, SchemeVanilla, 1, 1)
	const reads = 8
	for _, frameLen := range []int{readBufSize - 4, readBufSize - 3, 1 << 20} {
		t.Run(fmt.Sprint(frameLen), func(t *testing.T) {
			conn := dialRaw(t, srv)
			var wire []byte
			for i := 0; i < reads; i++ {
				wire = appendCommandFrame(wire, &CommandCapsule{Opcode: nvme.OpRead, CID: uint16(i), SLBA: uint64(i), Length: 4096})
			}
			head := len(wire)
			wire = appendCommandFrame(wire, &CommandCapsule{Opcode: nvme.OpWrite, CID: reads, Length: 4096,
				Data: bytes.Repeat([]byte{0xa5}, frameLen-cmdHeaderLen)})
			if len(wire)-head != 4+frameLen {
				t.Fatalf("write frame is %d bytes, want %d", len(wire)-head-4, frameLen)
			}
			half := head + (len(wire)-head)/2

			r := bufio.NewReaderSize(conn, 256<<10)
			conn.SetReadDeadline(time.Now().Add(10 * time.Second)) // a reader that held the reads back shows here
			dribble(t, conn, wire[:half], head)
			for i := 0; i < reads; i++ {
				expectResponse(t, r, i, 4096)
			}
			dribble(t, conn, wire[half:], 0)
			expectResponse(t, r, reads, 0)
		})
	}
}

// dribble writes p in 1–7-byte pieces up to 64 bytes past edge and over its
// last 64 bytes, and in 8 KB pieces in between.
func dribble(t *testing.T, conn net.Conn, p []byte, edge int) {
	t.Helper()
	for off, k := 0, 0; off < len(p); k++ {
		n := 8 << 10
		if off < edge+64 || off >= len(p)-64 {
			n = 1 + k%7
		} else if n > len(p)-64-off {
			n = len(p) - 64 - off
		}
		n = min(n, len(p)-off)
		if _, err := conn.Write(p[off : off+n]); err != nil {
			t.Fatal(err)
		}
		off += n
	}
}
