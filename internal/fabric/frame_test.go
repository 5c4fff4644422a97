package fabric

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"gimbal/internal/nvme"
)

// readCommand receives one command capsule the way the target's reader
// does, minus the slot: into c, reusing c.Data's capacity.
func (f *capsuleReader) readCommand(c *CommandCapsule) error {
	hdr, err := f.head(capCommand, cmdHeaderLen)
	if err != nil {
		return err
	}
	decodeCommandHeader(c, hdr)
	return f.body(&c.Data)
}

// readResponse receives one response capsule the way the initiator's
// reader does: its Data is allocated for it.
func (f *capsuleReader) readResponse(r *ResponseCapsule) error {
	hdr, err := f.head(capResponse, rspHeaderLen)
	if err != nil {
		return err
	}
	decodeResponseHeader(r, hdr)
	return f.body(&r.Data)
}

func writeFrame(cid uint16, data []byte) []byte {
	return appendCommandFrame(nil, &CommandCapsule{CID: cid, Opcode: nvme.OpWrite, Length: 4096, Data: data})
}

// TestReadFrameIntoScratchReuse: a capsule that receives frame after frame
// keeps one payload buffer for as long as it is large enough, which is what
// makes a slot's trip allocation-free, and gets one of exactly the payload's
// size when it is not.
func TestReadFrameIntoScratchReuse(t *testing.T) {
	small := bytes.Repeat([]byte{0xab}, 512)
	large := bytes.Repeat([]byte{0xcd}, 4096)
	wire := append(append(writeFrame(1, small), writeFrame(2, small)...), writeFrame(3, large)...)
	fr := newCapsuleReader(bytes.NewReader(wire), rxBufSize)

	scratch := make([]byte, 1024)
	cmd := CommandCapsule{Data: scratch}
	for cid := uint16(1); cid <= 2; cid++ {
		if err := fr.readCommand(&cmd); err != nil {
			t.Fatal(err)
		}
		if cmd.CID != cid || !bytes.Equal(cmd.Data, small) {
			t.Fatalf("frame %d corrupted: CID %d, %d bytes", cid, cmd.CID, len(cmd.Data))
		}
		if &cmd.Data[0] != &scratch[0] {
			t.Fatalf("frame %d did not reuse the capsule's buffer", cid)
		}
	}
	// A payload larger than the buffer must get a fresh one, of its own size.
	if err := fr.readCommand(&cmd); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cmd.Data, large) || cap(cmd.Data) != len(large) {
		t.Fatalf("third frame: %d bytes in a buffer of %d, want %d in %d", len(cmd.Data), cap(cmd.Data), len(large), len(large))
	}
	if &cmd.Data[0] == &scratch[0] {
		t.Fatal("oversized payload aliased the too-small buffer")
	}
	if err := fr.readCommand(&cmd); err != io.EOF {
		t.Fatalf("end of stream: %v, want io.EOF", err)
	}
}

// TestReadFrameOversizedRejected: a frame is refused on its prefix and its
// header, before anything is allocated for it — a length over maxFrame, one
// too short for a capsule header, and a payload length the frame cannot hold.
func TestReadFrameOversizedRejected(t *testing.T) {
	read := appendCommandFrame(nil, &CommandCapsule{CID: 7, Opcode: nvme.OpRead, Length: 4096})
	overclaim := bytes.Clone(read)
	binary.BigEndian.PutUint32(overclaim[4+cmdHeaderLen-4:], 1) // one data byte in a frame of header only
	for name, wire := range map[string][]byte{
		"over maxFrame":       append(binary.BigEndian.AppendUint32(nil, maxFrame+1), 0xff),
		"largest, no body":    binary.BigEndian.AppendUint32(nil, maxFrame),
		"shorter than header": append(binary.BigEndian.AppendUint32(nil, cmdHeaderLen-1), read[4:]...),
		"payload overclaimed": overclaim,
	} {
		var cmd CommandCapsule
		if err := newCapsuleReader(bytes.NewReader(wire), rxBufSize).readCommand(&cmd); err == nil {
			t.Errorf("%s: frame accepted", name)
		}
		if cmd.Data != nil {
			t.Errorf("%s: %d bytes allocated for a refused frame", name, cap(cmd.Data))
		}
	}
}

// stallingPeer delivers wire as a socket would deliver a stream — as much
// as fits each Read — and runs check before every Read with the number of
// bytes delivered so far: the reader is about to block on a peer that has
// sent that much and may send no more.
type stallingPeer struct {
	wire  []byte
	off   int
	check func(delivered, asked int)
}

func (s *stallingPeer) Read(p []byte) (int, error) {
	s.check(s.off, len(p))
	if s.off == len(s.wire) {
		return 0, io.EOF
	}
	n := copy(p, s.wire[s.off:])
	s.off += n
	return n, nil
}

// TestReactorJumboClaimPinsWhatArrived: a payload buffer grows as the
// payload arrives, not to what the header claims. Whenever the reader is
// about to wait for the peer, the capsule holds at most slotBufKeep or twice
// the payload received, whichever is larger, and the read it waits in asks
// for no more than slotBufKeep — so a peer that announces the largest frame
// and stalls pins one slot buffer, where it used to pin 4 MiB. The same
// frame then completes on a live target.
func TestReactorJumboClaimPinsWhatArrived(t *testing.T) {
	payload := make([]byte, maxFrame-cmdHeaderLen)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	wire := writeFrame(9, payload)
	var cmd CommandCapsule
	stalls := 0
	peer := &stallingPeer{wire: wire, check: func(delivered, asked int) {
		stalls++
		arrived := max(0, delivered-4-cmdHeaderLen)
		if bound := max(slotBufKeep, 2*arrived); cap(cmd.Data) > bound || asked > slotBufKeep {
			t.Fatalf("%d payload bytes in: buffer of %d (bound %d), next read asks for %d", arrived, cap(cmd.Data), bound, asked)
		}
	}}
	if err := newCapsuleReader(peer, rxBufSize).readCommand(&cmd); err != nil {
		t.Fatal(err)
	}
	if cmd.CID != 9 || !bytes.Equal(cmd.Data, payload) || cap(cmd.Data) > maxFrame {
		t.Fatalf("CID %d, %d bytes in a buffer of %d; payload intact: %v", cmd.CID, len(cmd.Data), cap(cmd.Data), bytes.Equal(cmd.Data, payload))
	}
	if stalls < len(payload)/slotBufKeep {
		t.Fatalf("%d reads for %d bytes: the stall check did not run per step", stalls, len(payload))
	}

	srv, _ := startReactors(t, SchemeVanilla, 1, 1)
	conn := dialRaw(t, srv)
	fr := newCapsuleReader(conn, rxBufSize)
	// The claim, a read pipelined behind nothing to prove the target is not
	// waiting on this connection alone, then the body.
	if _, err := conn.Write(wire[:4+cmdHeaderLen]); err != nil {
		t.Fatal(err)
	}
	other := dialRaw(t, srv)
	if _, err := other.Write(appendCommandFrame(nil, &CommandCapsule{Opcode: nvme.OpRead, CID: 1, Length: 4096})); err != nil {
		t.Fatal(err)
	}
	expectResponse(t, newCapsuleReader(other, rxBufSize), 1, 4096)
	if _, err := conn.Write(wire[4+cmdHeaderLen:]); err != nil {
		t.Fatal(err)
	}
	expectResponse(t, fr, 9, 0)
}
