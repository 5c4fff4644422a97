// Package fabric implements the NVMe-over-Fabrics layer: the command and
// response capsule wire format, the network and SmartNIC CPU models, the
// target core that owns per-SSD switch pipelines (§3.1, §4.1), and the
// initiator sessions with the client side of the flow-control protocols.
// Two interchangeable transports exist: an in-simulator loopback link
// (latency + bandwidth model of the §2.1 RDMA flow) used by every
// experiment, and a real TCP transport (framing and initiator in tcp.go,
// the per-SSD reactor target in reactor.go) used by the live target binary
// and the integration tests.
package fabric

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"gimbal/internal/nvme"
)

// Capsule type tags on the wire.
const (
	capCommand  = 0x01
	capResponse = 0x02
)

// Wire sizes.
const (
	cmdHeaderLen = 1 + 2 + 1 + 1 + 1 + 8 + 4 + 4 // type..datalen
	rspHeaderLen = 1 + 2 + 2 + 4 + 4
)

// CommandWireLen returns the encoded size of a command capsule carrying
// dataLen inline payload bytes, excluding the 4-byte frame prefix. Raw
// clients (benchmarks, smoke tests) use it to prebuild frames.
func CommandWireLen(dataLen int) int { return cmdHeaderLen + dataLen }

// ResponseWireLen is CommandWireLen's response-side counterpart.
func ResponseWireLen(dataLen int) int { return rspHeaderLen + dataLen }

// CommandCapsule is the initiator→target message: the NVMe submission
// queue entry fields this system uses, plus an optional inline data
// payload for writes (§2.1's inline-data optimization; the loopback
// transport models data by length only).
type CommandCapsule struct {
	CID      uint16
	Opcode   nvme.Opcode
	Priority nvme.Priority
	NSID     uint8 // SSD index within the target
	SLBA     uint64
	Length   uint32 // bytes
	Data     []byte // optional write payload (TCP transport)
}

// ResponseCapsule is the target→initiator completion: status plus the
// Gimbal credit piggybacked in the reserved field (§3.6), and optional
// read payload.
type ResponseCapsule struct {
	CID    uint16
	Status nvme.Status
	Credit uint32
	Data   []byte // optional read payload (TCP transport)
}

// AppendCommand serializes c onto buf.
func AppendCommand(buf []byte, c *CommandCapsule) []byte {
	buf = append(buf, capCommand)
	buf = binary.BigEndian.AppendUint16(buf, c.CID)
	buf = append(buf, byte(c.Opcode), byte(c.Priority), c.NSID)
	buf = binary.BigEndian.AppendUint64(buf, c.SLBA)
	buf = binary.BigEndian.AppendUint32(buf, c.Length)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(c.Data)))
	return append(buf, c.Data...)
}

// DecodeCommand parses a command capsule, returning the bytes consumed.
func DecodeCommand(buf []byte) (*CommandCapsule, int, error) {
	c := &CommandCapsule{}
	n, err := DecodeCommandInto(c, buf)
	if err != nil {
		return nil, 0, err
	}
	return c, n, nil
}

// DecodeCommandInto parses a command capsule into c, reusing the capacity
// of c.Data for the payload copy, and returns the bytes consumed. It lets a
// connection loop decode every command into one long-lived capsule with no
// per-message allocation.
func DecodeCommandInto(c *CommandCapsule, buf []byte) (int, error) {
	dataLen, err := payloadLen(buf, capCommand, cmdHeaderLen, len(buf))
	if err != nil {
		return 0, err
	}
	data := c.Data[:0]
	c.Data = nil
	decodeCommandHeader(c, buf)
	if dataLen > 0 {
		c.Data = append(data, buf[cmdHeaderLen:cmdHeaderLen+dataLen]...)
	}
	return cmdHeaderLen + dataLen, nil
}

// payloadLen is the one verdict on a capsule of n bytes: its header —
// hdrLen bytes that start with tag and end with the payload's length, in
// hdr once n says they are there — is all it takes, so the connection
// readers reach it with nothing allocated.
func payloadLen(hdr []byte, tag byte, hdrLen, n int) (int, error) {
	if n < hdrLen {
		return 0, fmt.Errorf("fabric: short capsule: %d bytes, the header is %d", n, hdrLen)
	}
	if hdr[0] != tag {
		return 0, fmt.Errorf("fabric: capsule tag 0x%02x, want 0x%02x", hdr[0], tag)
	}
	dataLen := binary.BigEndian.Uint32(hdr[hdrLen-4:])
	if uint64(dataLen) > uint64(n-hdrLen) {
		return 0, fmt.Errorf("fabric: capsule truncated: %d data bytes announced, %d present", dataLen, n-hdrLen)
	}
	return int(dataLen), nil
}

// decodeCommandHeader parses the cmdHeaderLen bytes ahead of a command's
// payload into c, leaving c.Data alone.
func decodeCommandHeader(c *CommandCapsule, hdr []byte) {
	_ = hdr[cmdHeaderLen-1]
	c.CID = binary.BigEndian.Uint16(hdr[1:])
	c.Opcode = nvme.Opcode(hdr[3])
	c.Priority = nvme.Priority(hdr[4])
	c.NSID = hdr[5]
	c.SLBA = binary.BigEndian.Uint64(hdr[6:])
	c.Length = binary.BigEndian.Uint32(hdr[14:])
}

// AppendResponse serializes r onto buf.
func AppendResponse(buf []byte, r *ResponseCapsule) []byte {
	return append(appendResponseHeader(buf, r.CID, r.Status, r.Credit, len(r.Data)), r.Data...)
}

// appendResponseHeader serializes the rspHeaderLen bytes that precede a
// response's payload. The target's completion path seals just these and
// sends the payload by reference.
func appendResponseHeader(buf []byte, cid uint16, st nvme.Status, credit uint32, dataLen int) []byte {
	buf = append(buf, capResponse)
	buf = binary.BigEndian.AppendUint16(buf, cid)
	buf = binary.BigEndian.AppendUint16(buf, uint16(st))
	buf = binary.BigEndian.AppendUint32(buf, credit)
	return binary.BigEndian.AppendUint32(buf, uint32(dataLen))
}

// DecodeResponse parses a response capsule, returning the bytes consumed.
// The capsule's Data is a copy (nil when the capsule carries none): buf may
// be reused afterwards.
func DecodeResponse(buf []byte) (*ResponseCapsule, int, error) {
	dataLen, err := payloadLen(buf, capResponse, rspHeaderLen, len(buf))
	if err != nil {
		return nil, 0, err
	}
	r := &ResponseCapsule{}
	decodeResponseHeader(r, buf)
	if dataLen > 0 {
		r.Data = bytes.Clone(buf[rspHeaderLen : rspHeaderLen+dataLen])
	}
	return r, rspHeaderLen + dataLen, nil
}

// decodeResponseHeader parses the rspHeaderLen bytes ahead of a response's
// payload into r, whose Data it leaves nil.
func decodeResponseHeader(r *ResponseCapsule, hdr []byte) {
	*r = ResponseCapsule{
		CID:    binary.BigEndian.Uint16(hdr[1:]),
		Status: nvme.Status(binary.BigEndian.Uint16(hdr[3:])),
		Credit: binary.BigEndian.Uint32(hdr[5:]),
	}
}
