package fabric

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
	"testing/iotest"

	"gimbal/internal/nvme"
)

// FuzzDecodeCommand feeds arbitrary bytes to the command-capsule parser the
// reactor read loop runs on every frame. DecodeCommandInto must never
// panic, never claim more bytes than it was given, consume nothing when it
// fails, and a capsule it accepts must re-encode to exactly the bytes it
// consumed. A second decode into the same (now dirty) capsule must agree:
// the reader reuses one capsule for a connection's lifetime.
func FuzzDecodeCommand(f *testing.F) {
	read := AppendCommand(nil, &CommandCapsule{CID: 7, Opcode: nvme.OpRead, NSID: 1, SLBA: 42, Length: 4096})
	write := AppendCommand(nil, &CommandCapsule{CID: 8, Opcode: nvme.OpWrite, Priority: nvme.PriorityLow,
		SLBA: 1, Length: 4096, Data: bytes.Repeat([]byte{0xa5}, 4096)})
	oversized := bytes.Clone(read)
	binary.BigEndian.PutUint32(oversized[cmdHeaderLen-4:], 1<<32-1) // claims 4 GiB of inline data
	f.Add(read)
	f.Add(write)
	f.Add(read[:cmdHeaderLen-3]) // truncated header
	f.Add(write[:cmdHeaderLen+100])
	f.Add(oversized)
	for _, tc := range reactorInvalidCommands {
		f.Add(AppendCommand(nil, &tc.cmd))
	}

	f.Fuzz(func(t *testing.T, buf []byte) {
		var c CommandCapsule
		n, err := DecodeCommandInto(&c, buf)
		if err != nil {
			if n != 0 {
				t.Fatalf("failed decode consumed %d bytes", n)
			}
			return
		}
		if n < cmdHeaderLen || n > len(buf) {
			t.Fatalf("consumed %d of %d bytes", n, len(buf))
		}
		if enc := AppendCommand(nil, &c); !bytes.Equal(enc, buf[:n]) {
			t.Fatalf("re-encode differs from the %d bytes consumed:\n in  %x\n out %x", n, buf[:n], enc)
		}
		first := c
		first.Data = bytes.Clone(c.Data)
		n2, err := DecodeCommandInto(&c, buf)
		if err != nil || n2 != n || !bytes.Equal(c.Data, first.Data) ||
			c.CID != first.CID || c.Opcode != first.Opcode || c.Priority != first.Priority ||
			c.NSID != first.NSID || c.SLBA != first.SLBA || c.Length != first.Length {
			t.Fatalf("decode into a reused capsule: %+v (%d, %v), first %+v (%d)", c, n2, err, first, n)
		}
	})
}

// FuzzReadFrame feeds arbitrary bytes to a connection reader's front end:
// capsuleReader's head, decodeCommandHeader and body, chained over one
// reader and one capsule as readLoop chains them. The buffers are 64 B and
// 4 KiB, so that the same stream has payloads that are whole in the buffer,
// split between buffer and source, and many buffers long, and each is fed
// whole and one byte per read. The oracle walks the same bytes and asks the
// exported decoder: every frame that is whole on the wire and that
// DecodeCommandInto accepts must come out with the same fields and its
// payload intact, and every other stream must end in an error — an
// oversized prefix, a frame too short for a header, a wrong tag or an
// overclaimed payload at the header, before anything is allocated; a
// truncated body or a bare prefix at the end of input — never a panic, a
// hang, or a buffer beyond maxFrame or beyond what the bytes that arrived
// justify. The reader announces every read of its source (readLoop flushes
// there) and makes none for a frame that is whole in its buffer (readLoop
// batches those).
func FuzzReadFrame(f *testing.F) {
	read := appendCommandFrame(nil, &CommandCapsule{CID: 7, Opcode: nvme.OpRead, NSID: 1, SLBA: 42, Length: 4096})
	write := appendCommandFrame(nil, &CommandCapsule{CID: 8, Opcode: nvme.OpWrite,
		SLBA: 1, Length: 4096, Data: bytes.Repeat([]byte{0xa5}, 4096)})
	// fills returns a write frame of exactly size bytes, prefix included: the
	// largest that a buffer of that size holds whole.
	fills := func(size int) []byte {
		return appendCommandFrame(nil, &CommandCapsule{CID: 9, Opcode: nvme.OpWrite, Length: 4096,
			Data: bytes.Repeat([]byte{0x5a}, size-4-cmdHeaderLen)})
	}
	trailed := bytes.Clone(read)
	binary.BigEndian.PutUint32(trailed, cmdHeaderLen+3) // three bytes trail the capsule in its frame
	f.Add(read)
	f.Add(write)
	f.Add(append(bytes.Clone(read), write...))
	f.Add(binary.BigEndian.AppendUint32(bytes.Clone(read), 0))                        // zero-length frame
	f.Add(append(binary.BigEndian.AppendUint32(bytes.Clone(read), maxFrame+1), 0xff)) // oversized prefix
	f.Add(binary.BigEndian.AppendUint32(nil, maxFrame))                               // largest prefix, no body
	f.Add(write[:len(write)-100])                                                     // truncated body
	f.Add(append(fills(4096), read...))
	f.Add(append(fills(64), fills(65)...)) // a 64 B buffer holds the first whole; the second ends in the source
	f.Add(append(append(trailed, 1, 2, 3), write...))

	f.Fuzz(func(t *testing.T, wire []byte) {
		for _, size := range []int{64, 4096} {
			walkFrames(t, wire, bytes.NewReader(wire), size)
			walkFrames(t, wire, iotest.OneByteReader(bytes.NewReader(wire)), size)
		}
	})
}

// countedReader counts the reads of the reader it wraps.
type countedReader struct {
	io.Reader
	reads int64
}

func (c *countedReader) Read(p []byte) (int, error) {
	c.reads++
	return c.Reader.Read(p)
}

// walkFrames is FuzzReadFrame's body for one source of wire.
func walkFrames(t *testing.T, wire []byte, source io.Reader, size int) {
	src := &countedReader{Reader: source}
	fr := newCapsuleReader(src, size)
	announced := int64(0)
	fr.before = func() { announced++ }
	var cmd, want CommandCapsule
	// next is the oracle: the frame at the head of rest, nil if the stream
	// ends (or breaks) there.
	next := func(rest []byte) []byte {
		if len(rest) >= 4 {
			if n := binary.BigEndian.Uint32(rest); n <= maxFrame && uint64(len(rest)) >= 4+uint64(n) {
				return rest[4 : 4+n : 4+n]
			}
		}
		return nil
	}
	for rest := wire; ; {
		had, readsBefore := cap(cmd.Data), src.reads
		frame := next(rest)
		buffered := frame != nil && fr.buf.Buffered() >= 4+len(frame)
		hdr, err := fr.head(capCommand, cmdHeaderLen)
		if err == nil {
			decodeCommandHeader(&cmd, hdr)
			err = fr.body(&cmd.Data)
		} else if cap(cmd.Data) != had {
			t.Fatalf("a frame refused at its header grew the payload buffer from %d to %d bytes", had, cap(cmd.Data))
		}
		if bound := max(had, slotBufKeep, 2*len(rest)); cap(cmd.Data) > maxFrame || cap(cmd.Data) > bound {
			t.Fatalf("payload buffer of %d bytes with %d left on the wire, past maxFrame or %d", cap(cmd.Data), len(rest), bound)
		}
		if announced != src.reads || fr.reads != src.reads || (buffered && src.reads != readsBefore) {
			t.Fatalf("%d reads of the source, %d announced, %d counted; %d of them for a frame whole in the buffer: %v",
				src.reads, announced, fr.reads, src.reads-readsBefore, buffered)
		}
		n, werr := DecodeCommandInto(&want, frame)
		if frame == nil || werr != nil {
			if err == nil {
				t.Fatalf("capsule accepted (%d payload bytes) from a stream with %d left: % x", len(cmd.Data), len(rest), rest[:min(len(rest), 8)])
			}
			return // readLoop hangs up on the peer
		}
		if err != nil {
			t.Fatalf("%v; want the frame of %d bytes on the wire", err, len(frame))
		}
		if !bytes.Equal(cmd.Data, frame[cmdHeaderLen:n]) || !bytes.Equal(AppendCommand(nil, &cmd), AppendCommand(nil, &want)) {
			t.Fatalf("received %+v, DecodeCommandInto says %+v", cmd, want)
		}
		rest = rest[4+len(frame):]
	}
}

// FuzzDecodeResponse holds the initiator's receive path (readResponse: the
// steps of TCPClient.readLoop), given the input as one frame, against the
// exported decoder: same accept/reject on every input,
// same fields, equal Data — each a buffer of its own, of exactly the
// payload's length — and what is accepted re-encodes to exactly the bytes
// DecodeResponse consumed (the reader drops what trails them in the frame).
func FuzzDecodeResponse(f *testing.F) {
	ok := AppendResponse(nil, &ResponseCapsule{CID: 7, Status: nvme.StatusOK, Credit: 12})
	data := AppendResponse(nil, &ResponseCapsule{CID: 8, Credit: 1, Data: bytes.Repeat([]byte{0xa5}, 4096)})
	oversized := bytes.Clone(ok)
	binary.BigEndian.PutUint32(oversized[rspHeaderLen-4:], 1<<32-1) // claims 4 GiB of payload
	f.Add(ok)
	f.Add(data)
	f.Add(AppendResponse(nil, &ResponseCapsule{CID: 9, Status: nvme.StatusInvalidLBA}))
	f.Add(ok[:rspHeaderLen-3])     // truncated header
	f.Add(data[:rspHeaderLen+100]) // truncated payload
	f.Add(append(bytes.Clone(data), ok...))
	f.Add(oversized)
	f.Add(AppendCommand(nil, &CommandCapsule{CID: 7, Opcode: nvme.OpRead, Length: 4096})) // wrong tag

	f.Fuzz(func(t *testing.T, buf []byte) {
		wire := append(binary.BigEndian.AppendUint32(nil, uint32(len(buf))), buf...)
		fr := newCapsuleReader(bytes.NewReader(wire), 64)
		var got ResponseCapsule
		err := fr.readResponse(&got)
		want, n, werr := DecodeResponse(buf)
		if (err != nil) != (werr != nil) {
			t.Fatalf("the reader: %v; DecodeResponse: %d, %v", err, n, werr)
		}
		if err != nil {
			if n != 0 {
				t.Fatalf("failed decode consumed %d bytes", n)
			}
			return
		}
		if n < rspHeaderLen || n > len(buf) {
			t.Fatalf("consumed %d of %d bytes", n, len(buf))
		}
		if got.CID != want.CID || got.Status != want.Status || got.Credit != want.Credit || !bytes.Equal(got.Data, want.Data) {
			t.Fatalf("the reader %+v, DecodeResponse %+v", got, *want)
		}
		if enc := AppendResponse(nil, want); !bytes.Equal(enc, buf[:n]) {
			t.Fatalf("re-encode differs from the %d bytes consumed:\n in  %x\n out %x", n, buf[:n], enc)
		}
		if err := fr.readResponse(&got); err != io.EOF {
			t.Fatalf("after the frame: %v, want io.EOF (%d bytes trailed the capsule)", err, len(buf)-n)
		}
		if len(want.Data) == 0 {
			if got.Data != nil || want.Data != nil {
				t.Fatalf("empty payload decoded as non-nil Data")
			}
			return
		}
		// Each is the receiver's alone: neither the input nor the other.
		if len(got.Data) != n-rspHeaderLen || cap(got.Data) != len(got.Data) {
			t.Fatalf("the reader's Data: len %d cap %d, want %d", len(got.Data), cap(got.Data), n-rspHeaderLen)
		}
		buf[rspHeaderLen] ^= 0xff
		if want.Data[0] == buf[rspHeaderLen] {
			t.Fatalf("DecodeResponse's Data changed with the input")
		}
	})
}
