package fabric

import (
	"bufio"
	"bytes"
	"encoding/binary"
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
// frameReader.next, DecodeCommandInto, then fullFrameBuffered, chained over
// one bufio.Reader and one capsule as readLoop chains them. The buffers are
// 64 B and 4 KiB, so that the same stream takes the in-place path (a frame
// that fits the buffer) and the scratch path (one that does not), and each
// is fed whole and one byte per read. Against an oracle that walks the same
// bytes, every well-formed frame must come out intact and every other
// stream must end in an error — an oversized prefix before anything is
// allocated for it, a truncated body or a bare prefix at the end of input,
// a zero-length frame at the decoder — never a panic, a hang, or a buffer
// beyond maxFrame.
func FuzzReadFrame(f *testing.F) {
	read := appendCommandFrame(nil, &CommandCapsule{CID: 7, Opcode: nvme.OpRead, NSID: 1, SLBA: 42, Length: 4096})
	write := appendCommandFrame(nil, &CommandCapsule{CID: 8, Opcode: nvme.OpWrite,
		SLBA: 1, Length: 4096, Data: bytes.Repeat([]byte{0xa5}, 4096)})
	// fills returns a write frame of exactly size bytes, prefix included: the
	// largest that is decoded in place from a buffer of that size.
	fills := func(size int) []byte {
		return appendCommandFrame(nil, &CommandCapsule{CID: 9, Opcode: nvme.OpWrite, Length: 4096,
			Data: bytes.Repeat([]byte{0x5a}, size-4-cmdHeaderLen)})
	}
	f.Add(read)
	f.Add(write)
	f.Add(append(bytes.Clone(read), write...))
	f.Add(binary.BigEndian.AppendUint32(bytes.Clone(read), 0))                        // zero-length frame
	f.Add(append(binary.BigEndian.AppendUint32(bytes.Clone(read), maxFrame+1), 0xff)) // oversized prefix
	f.Add(binary.BigEndian.AppendUint32(nil, maxFrame))                               // largest prefix, no body
	f.Add(write[:len(write)-100])                                                     // truncated body
	f.Add(append(fills(4096), read...))
	f.Add(append(fills(64), fills(65)...)) // a 64 B buffer takes the first in place, the second through scratch

	f.Fuzz(func(t *testing.T, wire []byte) {
		for _, size := range []int{64, 4096} {
			walkFrames(t, wire, bufio.NewReaderSize(bytes.NewReader(wire), size))
			walkFrames(t, wire, bufio.NewReaderSize(iotest.OneByteReader(bytes.NewReader(wire)), size))
		}
	})
}

// walkFrames is FuzzReadFrame's body for one reader over wire.
func walkFrames(t *testing.T, wire []byte, r *bufio.Reader) {
	fr := frameReader{r: r}
	var cmd CommandCapsule
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
		frame, err := fr.next()
		want := next(rest)
		if want == nil {
			if err == nil {
				t.Fatalf("frame of %d bytes accepted from a stream with %d left: % x", len(frame), len(rest), rest[:min(len(rest), 8)])
			}
			return
		}
		if err != nil || !bytes.Equal(frame, want) {
			t.Fatalf("frame = %d bytes, %v; want the %d on the wire", len(frame), err, len(want))
		}
		if inPlace := fr.held > 0; inPlace != (4+len(want) <= r.Size()) {
			t.Fatalf("frame of %d bytes from a %d-byte buffer: decoded in place is %v", len(want), r.Size(), inPlace)
		}
		rest = rest[4+len(want):]
		n, err := DecodeCommandInto(&cmd, frame)
		if cap(fr.scratch) > maxFrame || cap(cmd.Data) > maxFrame {
			t.Fatalf("buffers grew to %d and %d bytes, past maxFrame", cap(fr.scratch), cap(cmd.Data))
		}
		if err != nil {
			return // readLoop hangs up on the peer
		}
		if n < cmdHeaderLen || n > len(frame) || !bytes.Equal(cmd.Data, frame[cmdHeaderLen:n]) {
			t.Fatalf("decoded %d of %d bytes, %d of payload", n, len(frame), len(cmd.Data))
		}
		// The reader's batching test must not promise a frame that is not
		// there (it would then block with commands staged), and must leave
		// the stream where it was.
		if fr.fullFrameBuffered() && next(rest) == nil {
			t.Fatalf("a whole frame reported buffered with %d bytes left: % x", len(rest), rest[:min(len(rest), 8)])
		}
	}
}

// FuzzDecodeResponse holds the initiator's decoder, whose Data aliases the
// frame, against the exported copying one: same accept/reject on every
// input, same fields and bytes consumed, equal Data — a view into the
// input for the first, a copy for the second — and what is accepted
// re-encodes to exactly the bytes consumed.
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
		in := bytes.Clone(buf)
		var got ResponseCapsule
		n, err := decodeResponseAliased(&got, in)
		want, wn, werr := DecodeResponse(buf)
		if (err != nil) != (werr != nil) || n != wn {
			t.Fatalf("aliasing decoder: %d, %v; DecodeResponse: %d, %v", n, err, wn, werr)
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
			t.Fatalf("aliasing decoder %+v, DecodeResponse %+v", got, *want)
		}
		if enc := AppendResponse(nil, &got); !bytes.Equal(enc, buf[:n]) {
			t.Fatalf("re-encode differs from the %d bytes consumed:\n in  %x\n out %x", n, buf[:n], enc)
		}
		if len(got.Data) == 0 {
			if got.Data != nil || want.Data != nil {
				t.Fatalf("empty payload decoded as non-nil Data")
			}
			return
		}
		// One is the input's own bytes, nothing past them; the other is not.
		if &got.Data[0] != &in[rspHeaderLen] || len(got.Data) != n-rspHeaderLen || cap(got.Data) != len(got.Data) {
			t.Fatalf("aliased Data is not in[%d:%d]: len %d cap %d", rspHeaderLen, n, len(got.Data), cap(got.Data))
		}
		buf[rspHeaderLen] ^= 0xff
		if want.Data[0] == buf[rspHeaderLen] {
			t.Fatalf("DecodeResponse's Data changed with the input")
		}
	})
}
