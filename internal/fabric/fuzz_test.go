package fabric

import (
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
