package fabric

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
	"testing"
	"time"
	"unsafe"

	"gimbal/internal/nvme"
	"gimbal/internal/obs"
	"gimbal/internal/sim"
	"gimbal/internal/ssd"
)

// expectResponse reads the next response from a raw connection and checks
// its CID, an OK status and its payload length.
func expectResponse(t *testing.T, fr *capsuleReader, cid, dataLen int) *ResponseCapsule {
	t.Helper()
	rsp := &ResponseCapsule{}
	if err := fr.readResponse(rsp); err != nil {
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
	fr := newCapsuleReader(conn, rxBufSize)
	zeroes := make([]byte, size)
	for i := 0; i < n; i++ {
		if rsp := expectResponse(t, fr, i, size); !bytes.Equal(rsp.Data, zeroes) {
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

// TestReactorFrameAtBufferBoundary: a write whose frame ends exactly at the
// end of the reader's buffer or one byte past it, whose payload is one byte
// short of large or just large (the fill behind it is then capped), or that
// is many buffers long, arrives whole, and a reader waiting for the rest of
// it holds nothing back: the reads pipelined ahead of the write are
// answered while half of the write is still to come, and the reads behind
// it once it has. The stream arrives in 1–7-byte writes around every frame
// boundary, so prefixes and headers come in pieces.
func TestReactorFrameAtBufferBoundary(t *testing.T) {
	srv, _ := startReactors(t, SchemeVanilla, 1, 1)
	const reads = 8
	for _, frameLen := range []int{rxBufSize - 4, rxBufSize - 3, cmdHeaderLen + largePayload - 1, cmdHeaderLen + largePayload, 1 << 20} {
		t.Run(fmt.Sprint(frameLen), func(t *testing.T) {
			conn := dialRaw(t, srv)
			pipeline := func(wire []byte, cid int) []byte {
				for i := 0; i < reads; i++ {
					wire = appendCommandFrame(wire, &CommandCapsule{Opcode: nvme.OpRead, CID: uint16(cid + i), SLBA: uint64(i), Length: 4096})
				}
				return wire
			}
			wire := pipeline(nil, 0)
			head := len(wire)
			wire = appendCommandFrame(wire, &CommandCapsule{Opcode: nvme.OpWrite, CID: reads, Length: 4096,
				Data: bytes.Repeat([]byte{0xa5}, frameLen-cmdHeaderLen)})
			if len(wire)-head != 4+frameLen {
				t.Fatalf("write frame is %d bytes, want %d", len(wire)-head-4, frameLen)
			}
			half, tail := head+(len(wire)-head)/2, len(wire)
			wire = pipeline(wire, reads+1)

			fr := newCapsuleReader(conn, rxBufSize)
			conn.SetReadDeadline(time.Now().Add(10 * time.Second)) // a reader that held the reads back shows here
			dribble(t, conn, wire[:half], head)
			for i := 0; i < reads; i++ {
				expectResponse(t, fr, i, 4096)
			}
			dribble(t, conn, wire[half:tail], 0)
			dribble(t, conn, wire[tail:], len(wire)-tail)
			expectResponse(t, fr, reads, 0)
			for i := 0; i < reads; i++ {
				expectResponse(t, fr, reads+1+i, 4096)
			}
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

// slotOf returns the slot whose IO a device request carries: nvme tags the
// request with the IO, which is a field of the slot.
func slotOf(r *ssd.Request) *ioSlot {
	var s ioSlot
	return (*ioSlot)(unsafe.Add(unsafe.Pointer(r.Tag.(*nvme.IO)), -int(unsafe.Offsetof(s.io))))
}

// TestReactorWritePayloadIntact: a write's payload is in its slot's
// cmd.Data byte for byte when the command reaches the device and stays there
// while the slot is out. Patterned payloads from one byte to many buffers,
// a read between each two, every frame's first and last 64 bytes arriving in
// 1–7-byte pieces; the device holds every command, so all the slots are out
// at once and none can be a recycled neighbour's. A second pass sends the
// sizes in the other order through the recycled slots, whose buffers are
// then too large or too small for what they receive.
func TestReactorWritePayloadIntact(t *testing.T) {
	shards := sim.NewRealShards(1)
	dev := &heldDevice{shard: shards.Shard(0)}
	srv, err := ServeTCPReactors(shards, NewReactorTarget(shards, []ssd.Device{dev}, DefaultTargetConfig(SchemeVanilla)), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn := dialRaw(t, srv)
	fr := newCapsuleReader(conn, rxBufSize)

	sizes := []int{1, 4 << 10, 16 << 10, 64 << 10, 128 << 10, 1 << 20}
	for pass := 0; pass < 2; pass++ {
		sent := map[int64][]byte{} // by the command's offset
		for i, size := range sizes {
			data := make([]byte, size)
			for j := range data {
				data[j] = byte(j*31 + i + pass)
			}
			slba := uint64(2*i+1) * 1024
			sent[int64(slba)*4096] = data
			wire := appendCommandFrame(nil, &CommandCapsule{Opcode: nvme.OpRead, CID: uint16(2 * i), SLBA: uint64(2*i) * 1024, Length: 4096})
			dribble(t, conn, wire, len(wire))
			dribble(t, conn, appendCommandFrame(nil, &CommandCapsule{Opcode: nvme.OpWrite, CID: uint16(2*i + 1), SLBA: slba, Length: 4096, Data: data}), 0)
		}
		dev.await(t, srv, int64(2*len(sizes)))
		dev.shard.Lock()
		for _, r := range dev.held {
			s, want := slotOf(r), sent[r.Offset]
			if (r.Kind == ssd.OpWrite) != (want != nil) || !bytes.Equal(s.cmd.Data, want) {
				t.Errorf("pass %d, %v at %d: slot holds %d payload bytes, %d were sent; equal: %v", pass, r.Kind, r.Offset, len(s.cmd.Data), len(want), bytes.Equal(s.cmd.Data, want))
			}
		}
		dev.shard.Unlock()
		dev.releaseAt(t, srv, int64(2*len(sizes)))
		for i := range sizes {
			expectResponse(t, fr, 2*i, 4096)
			expectResponse(t, fr, 2*i+1, 0)
		}
		slices.Reverse(sizes)
	}
}

// burstWrites runs n writes of size bytes on a raw connection, qd
// outstanding, submitted qd/2 to a Write as an initiator that batches its
// submissions does.
func burstWrites(t *testing.T, conn net.Conn, size, qd, n int) {
	t.Helper()
	fr := newCapsuleReader(conn, rxBufSize)
	data := make([]byte, size)
	var wire []byte
	for sent, got := 0, 0; got < n; {
		wire = wire[:0]
		for ; sent < n && sent-got < qd; sent++ {
			wire = appendCommandFrame(wire, &CommandCapsule{Opcode: nvme.OpWrite, CID: uint16(sent), SLBA: uint64(sent % 1024), Length: 4096, Data: data})
		}
		if _, err := conn.Write(wire); err != nil {
			t.Fatal(err)
		}
		for reap := got + qd/2; got < reap || (sent == n && got < n); got++ {
			expectResponse(t, fr, got&0xffff, 0)
		}
	}
}

// TestReactorReadsPerCapsule pins, in socket reads, the batching the
// receive path promises: small writes still arrive several to a read
// through the buffer, and a large one costs a read for its header and one
// or two for its payload, not a read per buffer-full.
func TestReactorReadsPerCapsule(t *testing.T) {
	srv, _ := startReactors(t, SchemeVanilla, 1, 1)
	reg := obs.NewRegistry()
	srv.AttachObs(obs.NewHub(reg), nil)
	run := func(size, qd, n int) float64 {
		before := srv.ReactorStats()[0]
		burstWrites(t, dialRaw(t, srv), size, qd, n)
		after := srv.ReactorStats()[0]
		if after.RxCapsules-before.RxCapsules != int64(n) {
			t.Fatalf("%d capsules received, %d sent", after.RxCapsules-before.RxCapsules, n)
		}
		return float64(after.RxReads-before.RxReads) / float64(n)
	}
	small, large := run(4<<10, 32, 8000), run(64<<10, 4, 2000)
	if small > 1.0/4 {
		t.Errorf("4 KB writes at QD32: %.2f capsules per socket read, want at least 4", 1/small)
	}
	if large > 3 {
		t.Errorf("64 KB writes at QD4: %.2f socket reads per capsule, want at most 3", large)
	}
	t.Logf("4 KB: %.2f capsules per read; 64 KB: %.2f reads per capsule", 1/small, large)
	if got, st := obs.SumMetric(reg.Snapshot(), "fabric_reactor_rx_reads"), srv.ReactorStats()[0]; got != float64(st.RxReads) {
		t.Errorf("fabric_reactor_rx_reads = %v, /reactors says %d", got, st.RxReads)
	}
}
