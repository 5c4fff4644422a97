package fabric

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"gimbal/internal/nvme"
)

// The TCP transport frames capsules with a 4-byte big-endian length prefix
// on a plain TCP stream — the NVMe-over-TCP shape of NVMe-oF (§2.1 lists
// TCP among the supported fabrics). One TCP connection corresponds to one
// tenant per namespace (the RDMA qpair + NVMe qpair pairing of §3.1). This
// file holds the framing and the receive path both ends share, and the
// initiator; the target side is the reactor datapath in reactor.go.

const (
	maxFrame = 4 << 20 // caps a frame at 4MB: header + 128KB data is typical

	// rxBufSize is a connection's receive buffer, for headers and small
	// frames: a QD32 initiator's burst of sixteen 4 KB writes arrives in two
	// socket reads (at 16 KiB, four frames to a read and 10% slower).
	rxBufSize = 64 << 10
	// largePayload is half the buffer: no two frames that size fit it, so a
	// greedy fill behind one would drag most of the next payload through the
	// buffer and batch nothing. That fill is capped at fillAfterLarge: the
	// next header, or 150 read commands if the stream has turned, for the
	// price of copying a page.
	largePayload   = rxBufSize / 2
	fillAfterLarge = 4 << 10
)

// appendCommandFrame appends c as one wire frame: length prefix, capsule.
func appendCommandFrame(buf []byte, c *CommandCapsule) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(CommandWireLen(len(c.Data))))
	return AppendCommand(buf, c)
}

// capsuleReader is how both ends receive: header first, payload straight
// into the buffer that will hold it. head checks a frame's prefix and
// capsule header where the socket read left them, before anything is
// allocated; the caller decodes the header in place; body consumes the
// frame, copying only the part of the payload that a fill brought along and
// reading the rest from the socket into its destination.
type capsuleReader struct {
	src io.Reader     // the socket
	buf *bufio.Reader // over the reader itself: Read is its fill
	// before, if set, runs ahead of every read of the socket — the only
	// places the reader can block — and reads counts them.
	before func()
	reads  int64

	afterLarge           bool // the last payload was a large one
	skip, dataLen, trail int  // of the frame head returned: bytes ahead of its payload, in it, behind it
}

func newCapsuleReader(src io.Reader, size int) *capsuleReader {
	f := &capsuleReader{src: src}
	f.buf = bufio.NewReaderSize(f, size)
	return f
}

// Read is every read of the socket: the buffer's fills, capped behind a
// large payload, and body's.
func (f *capsuleReader) Read(p []byte) (int, error) {
	if f.afterLarge && len(p) > fillAfterLarge {
		p = p[:fillAfterLarge]
	}
	if f.before != nil {
		f.before()
	}
	f.reads++
	return f.src.Read(p)
}

// head waits for the next frame and returns its capsule header — hdrLen
// bytes, checked by payloadLen — valid until the call to body that must
// follow. It consumes nothing: a caller can wait for the peer to speak
// before it finds somewhere to put the capsule.
func (f *capsuleReader) head(tag byte, hdrLen int) ([]byte, error) {
	p, err := f.buf.Peek(4)
	if err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(p)
	if n > maxFrame {
		return nil, fmt.Errorf("fabric: frame of %d bytes exceeds limit", n)
	}
	if int(n) >= hdrLen { // else payloadLen refuses the frame unseen
		if p, err = f.buf.Peek(4 + hdrLen); err != nil {
			return nil, err
		}
	}
	f.dataLen, err = payloadLen(p[4:], tag, hdrLen, int(n))
	f.skip, f.trail = 4+hdrLen, int(n)-hdrLen-f.dataLen
	return p[4:], err
}

// body consumes the frame: *data becomes its payload, in the capacity it
// came with where that suffices. A buffer that must grow grows as the bytes
// arrive — one read of at most slotBufKeep at a time, to at most twice what
// has arrived — so a peer pins what it sends, not what it claims.
func (f *capsuleReader) body(data *[]byte) error {
	f.buf.Discard(f.skip)
	*data = (*data)[:0]
	f.afterLarge = false // what body reads itself is no fill
	for got := 0; got < f.dataLen; {
		end := got + min(f.dataLen-got, slotBufKeep)
		if cap(*data) < end {
			*data = append(make([]byte, 0, min(f.dataLen, max(end, 2*got))), *data...)
		}
		*data = (*data)[:end]
		if k := min(end-got, f.buf.Buffered()); k > 0 {
			f.buf.Read((*data)[got : got+k]) // a copy: no fill while bytes are buffered
			got += k
		}
		if _, err := io.ReadFull(f, (*data)[got:end]); err != nil {
			return err
		}
		got = end
	}
	f.afterLarge = f.dataLen >= largePayload
	_, err := f.buf.Discard(f.trail)
	return err
}

// clientBufKeep is the largest send buffer the initiator's writer keeps
// between passes: a burst of jumbo writes does not pin its high-water mark
// for the life of the client.
const clientBufKeep = 1 << 20

// TCPClient is the initiator side: it multiplexes async commands over one
// connection and applies the scheme's client-side gate (credit or PARDA).
// Commands reach the wire in the order the gate admitted them: Go encodes
// each frame into a send queue under the client's lock, and one writer
// goroutine writes everything queued since its last pass with a single
// Write — a burst of submissions costs one syscall, not one each.
type TCPClient struct {
	conn net.Conn

	mu      sync.Mutex
	gate    Gater
	pending map[uint16]*pendingCall
	queue   []*pendingCall // gated locally
	nextCID uint16
	err     error
	sendq   []byte    // encoded frames the writer has not taken yet
	kick    sync.Cond // on mu: sendq filled, or err set

	loops sync.WaitGroup // readLoop and writeLoop
}

type pendingCall struct {
	cmd    *CommandCapsule
	sentAt time.Time // stamped by sendLocked: the gate's latency signal
	done   chan callResult
	rsp    ResponseCapsule // what done delivers a pointer to
}

type callResult struct {
	rsp *ResponseCapsule
	err error
}

// DialTCP connects to a target, applying the client-side controller for
// the scheme (SchemeGimbal → credit gate, SchemeParda → PARDA window). The
// socket asks for the congestion control the target's listener asks for: a
// dialled socket inherits nothing from a listener.
func DialTCP(addr string, scheme Scheme) (*TCPClient, error) {
	conn, err := (&net.Dialer{Control: windowCC}).Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &TCPClient{
		conn:    conn,
		gate:    NewGater(scheme),
		pending: map[uint16]*pendingCall{},
	}
	c.kick.L = &c.mu
	c.loops.Add(2)
	go c.readLoop()
	go c.writeLoop()
	return c, nil
}

// Close tears down the connection and waits for the client's two
// goroutines: the reader's read fails, and fail() stops the writer.
// Outstanding calls fail.
func (c *TCPClient) Close() error {
	err := c.conn.Close()
	c.loops.Wait()
	return err
}

// readLoop completes calls. Each response's Data is a buffer of its own,
// allocated for it and written once — by the socket read, for all of a large
// payload but the page that came with its header.
func (c *TCPClient) readLoop() {
	defer c.loops.Done()
	fr := newCapsuleReader(c.conn, rxBufSize)
	for {
		var rsp ResponseCapsule
		hdr, err := fr.head(capResponse, rspHeaderLen)
		if err == nil {
			decodeResponseHeader(&rsp, hdr)
			err = fr.body(&rsp.Data)
		}
		if err != nil {
			c.fail(err)
			return
		}
		c.mu.Lock()
		call := c.pending[rsp.CID]
		delete(c.pending, rsp.CID)
		if call != nil {
			c.gate.OnCompletion(rsp.Credit, int64(time.Since(call.sentAt)))
		}
		c.drainLocked()
		c.mu.Unlock()
		if call != nil {
			call.rsp = rsp
			call.done <- callResult{rsp: &call.rsp}
		}
	}
}

// writeLoop is the one goroutine that writes to the socket. A peer that
// stops reading blocks it in Write; Go keeps queueing behind it.
func (c *TCPClient) writeLoop() {
	defer c.loops.Done()
	var buf []byte
	for {
		c.mu.Lock()
		for len(c.sendq) == 0 && c.err == nil {
			c.kick.Wait()
		}
		if c.err != nil {
			c.mu.Unlock()
			return
		}
		if cap(buf) > clientBufKeep {
			buf = nil
		}
		buf, c.sendq = c.sendq, buf[:0]
		c.mu.Unlock()
		if _, err := c.conn.Write(buf); err != nil {
			c.fail(err)
			return
		}
	}
}

// fail ends the client with its first error: every call outstanding or
// gated fails with it, later ones are refused, the writer stops.
func (c *TCPClient) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	calls := make([]*pendingCall, 0, len(c.pending)+len(c.queue))
	for cid, call := range c.pending {
		delete(c.pending, cid)
		calls = append(calls, call)
	}
	calls = append(calls, c.queue...)
	c.queue = nil
	c.kick.Signal()
	c.mu.Unlock()
	for _, call := range calls {
		call.done <- callResult{err: err}
	}
}

// Go issues a command asynchronously, respecting the flow-control gate;
// the returned channel receives exactly one result. The command's Data is
// copied before Go returns; a response's Data is the receiver's own.
func (c *TCPClient) Go(cmd *CommandCapsule) <-chan callResult {
	call := &pendingCall{cmd: cmd, done: make(chan callResult, 1)}
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		call.done <- callResult{err: err}
		return call.done
	}
	if !c.gate.CanSubmit() {
		c.queue = append(c.queue, call)
		c.mu.Unlock()
		return call.done
	}
	c.sendLocked(call)
	c.mu.Unlock()
	return call.done
}

// Do issues a command and waits for its completion.
func (c *TCPClient) Do(cmd *CommandCapsule) (*ResponseCapsule, error) {
	res := <-c.Go(cmd)
	return res.rsp, res.err
}

// DoIO is a convenience for byte-addressed block IO.
func (c *TCPClient) DoIO(op nvme.Opcode, nsid uint8, offset int64, size int, data []byte) (*ResponseCapsule, error) {
	return c.Do(&CommandCapsule{
		Opcode: op, NSID: nsid, SLBA: uint64(offset) / 4096,
		Length: uint32(size), Data: data,
	})
}

// sendLocked assigns a CID and queues the frame for the writer; c.mu must
// be held.
func (c *TCPClient) sendLocked(call *pendingCall) {
	for {
		c.nextCID++
		if _, busy := c.pending[c.nextCID]; !busy {
			break
		}
	}
	call.cmd.CID = c.nextCID
	call.sentAt = time.Now()
	c.pending[c.nextCID] = call
	c.gate.OnSubmit()
	c.sendq = appendCommandFrame(c.sendq, call.cmd)
	c.kick.Signal()
}

func (c *TCPClient) drainLocked() {
	for len(c.queue) > 0 && c.gate.CanSubmit() {
		call := c.queue[0]
		c.queue = c.queue[1:]
		c.sendLocked(call)
	}
}

// Headroom exposes the gate state (for CLI status output).
func (c *TCPClient) Headroom() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gate.Headroom()
}
