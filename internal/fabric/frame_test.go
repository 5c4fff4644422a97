package fabric

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"testing"
)

// appendWireFrame frames a payload the way a sender does.
func appendWireFrame(wire, payload []byte) []byte {
	wire = binary.BigEndian.AppendUint32(wire, uint32(len(payload)))
	return append(wire, payload...)
}

func TestReadFrameIntoScratchReuse(t *testing.T) {
	small := bytes.Repeat([]byte{0xab}, 512)
	large := bytes.Repeat([]byte{0xcd}, 4096)
	var wire []byte
	wire = appendWireFrame(wire, small)
	wire = appendWireFrame(wire, small)
	wire = appendWireFrame(wire, large)
	r := bufio.NewReader(bytes.NewReader(wire))

	scratch := make([]byte, 1024)
	f1, err := readFrameInto(r, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if len(f1) != 512 || &f1[0] != &scratch[0] {
		t.Fatal("first frame did not reuse the scratch buffer")
	}
	f2, err := readFrameInto(r, f1)
	if err != nil {
		t.Fatal(err)
	}
	if &f2[0] != &scratch[0] {
		t.Fatal("second frame did not reuse the recycled scratch")
	}
	if !bytes.Equal(f2, small) {
		t.Fatal("second frame corrupted")
	}
	// A frame larger than the scratch capacity must get a fresh buffer.
	f3, err := readFrameInto(r, f2)
	if err != nil {
		t.Fatal(err)
	}
	if len(f3) != 4096 {
		t.Fatalf("third frame length %d, want 4096", len(f3))
	}
	if &f3[0] == &scratch[0] {
		t.Fatal("oversized frame aliased the too-small scratch")
	}
	if !bytes.Equal(f3, large) {
		t.Fatal("third frame corrupted")
	}
}

func TestReadFrameOversizedRejected(t *testing.T) {
	var wire []byte
	wire = binary.BigEndian.AppendUint32(wire, maxFrame+1)
	wire = append(wire, 0xff) // truncated body; the length check fires first
	if _, err := readFrameInto(bufio.NewReader(bytes.NewReader(wire)), nil); err == nil {
		t.Fatal("frame over maxFrame accepted")
	}
}
