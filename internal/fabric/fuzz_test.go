package fabric

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"testing"

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
// readFrameInto then DecodeCommandInto, chained over one bufio.Reader, one
// scratch buffer and one capsule as readLoop chains them. Against an oracle
// that walks the same bytes, every well-formed frame must come out intact
// and every other stream must end in an error — an oversized prefix before
// anything is allocated for it, a truncated body or a bare prefix at the
// end of input, a zero-length frame at the decoder — never a panic, a hang,
// or a buffer beyond maxFrame.
func FuzzReadFrame(f *testing.F) {
	read := appendWireFrame(nil, AppendCommand(nil, &CommandCapsule{CID: 7, Opcode: nvme.OpRead, NSID: 1, SLBA: 42, Length: 4096}))
	write := appendWireFrame(nil, AppendCommand(nil, &CommandCapsule{CID: 8, Opcode: nvme.OpWrite,
		SLBA: 1, Length: 4096, Data: bytes.Repeat([]byte{0xa5}, 4096)}))
	f.Add(read)
	f.Add(write)
	f.Add(append(bytes.Clone(read), write...))
	f.Add(binary.BigEndian.AppendUint32(bytes.Clone(read), 0))                        // zero-length frame
	f.Add(append(binary.BigEndian.AppendUint32(bytes.Clone(read), maxFrame+1), 0xff)) // oversized prefix
	f.Add(binary.BigEndian.AppendUint32(nil, maxFrame))                               // largest prefix, no body
	f.Add(write[:len(write)-100])                                                     // truncated body

	f.Fuzz(func(t *testing.T, wire []byte) {
		r := bufio.NewReaderSize(bytes.NewReader(wire), 4096)
		var scratch []byte
		var cmd CommandCapsule
		for rest := wire; ; {
			frame, err := readFrameInto(r, scratch)
			var want []byte // nil: the stream ends here
			if len(rest) >= 4 {
				if n := binary.BigEndian.Uint32(rest); n <= maxFrame && uint64(len(rest)) >= 4+uint64(n) {
					want = rest[4 : 4+n : 4+n]
				}
			}
			if want == nil {
				if err == nil {
					t.Fatalf("frame of %d bytes accepted from a stream with %d left: % x", len(frame), len(rest), rest[:min(len(rest), 8)])
				}
				return
			}
			if err != nil || !bytes.Equal(frame, want) {
				t.Fatalf("frame = %d bytes, %v; want the %d on the wire", len(frame), err, len(want))
			}
			scratch, rest = frame, rest[4+len(want):]
			n, err := DecodeCommandInto(&cmd, frame)
			if cap(scratch) > maxFrame || cap(cmd.Data) > maxFrame {
				t.Fatalf("buffers grew to %d and %d bytes, past maxFrame", cap(scratch), cap(cmd.Data))
			}
			if err != nil {
				return // readLoop hangs up on the peer
			}
			if n < cmdHeaderLen || n > len(frame) || !bytes.Equal(cmd.Data, frame[cmdHeaderLen:n]) {
				t.Fatalf("decoded %d of %d bytes, %d of payload", n, len(frame), len(cmd.Data))
			}
		}
	})
}
