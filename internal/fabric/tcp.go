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
// file holds the framing both ends share and the initiator; the target side
// is the reactor datapath in reactor.go.

const maxFrame = 4 << 20 // caps a frame at 4MB: header + 128KB data is typical

// readFrameInto reads one frame, reusing scratch's capacity when it
// suffices so a connection loop amortizes its read buffer.
func readFrameInto(r *bufio.Reader, scratch []byte) ([]byte, error) {
	// Peek+Discard instead of ReadFull into a local array: the array's
	// slice would escape through the io.Reader interface and cost one
	// heap allocation per frame on the live datapath.
	hdr, err := r.Peek(4)
	if err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	r.Discard(4)
	if n > maxFrame {
		return nil, fmt.Errorf("fabric: frame of %d bytes exceeds limit", n)
	}
	var buf []byte
	if uint32(cap(scratch)) >= n {
		buf = scratch[:n]
	} else {
		buf = make([]byte, n)
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// appendCommandFrame appends c as one wire frame: length prefix, capsule.
func appendCommandFrame(buf []byte, c *CommandCapsule) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(CommandWireLen(len(c.Data))))
	return AppendCommand(buf, c)
}

// frameReader yields a connection's frames one at a time for a consumer
// that is done with each before it asks for the next (the target's
// connection reader: DecodeCommandInto copies what it keeps). A frame that
// fits the bufio buffer together with its prefix is returned where the
// socket read left it, with no copy; only a larger one is assembled in
// scratch.
type frameReader struct {
	r       *bufio.Reader
	scratch []byte
	held    int // bytes of r's buffer under the frame last returned
}

// next returns the next frame, valid until the following call to next or
// fullFrameBuffered.
func (f *frameReader) next() ([]byte, error) {
	f.release()
	hdr, err := f.r.Peek(4)
	if err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > maxFrame || 4+int(n) > f.r.Size() {
		frame, err := readFrameInto(f.r, f.scratch)
		if err == nil {
			f.scratch = frame
		}
		return frame, err
	}
	whole, err := f.r.Peek(4 + int(n))
	if err != nil {
		return nil, err
	}
	f.held = len(whole)
	return whole[4:], nil
}

func (f *frameReader) release() {
	f.r.Discard(f.held)
	f.held = 0
}

// fullFrameBuffered reports whether the buffer already holds the whole of
// the frame after the one last returned, which it releases. The reader
// keeps batching while this holds and flushes its staged commands before
// any read that could block — otherwise a client waiting for responses to
// its staged commands would deadlock against a reader waiting for the rest
// of a frame.
func (f *frameReader) fullFrameBuffered() bool {
	f.release()
	if f.r.Buffered() < 4 {
		return false
	}
	p, err := f.r.Peek(4)
	if err != nil {
		return false
	}
	n := binary.BigEndian.Uint32(p)
	return n <= maxFrame && f.r.Buffered() >= 4+int(n)
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
// the scheme (SchemeGimbal → credit gate, SchemeParda → PARDA window).
func DialTCP(addr string, scheme Scheme) (*TCPClient, error) {
	conn, err := net.Dial("tcp", addr)
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

// readLoop completes calls. Each response gets a frame of its own and the
// capsule's Data aliases it, so the payload is written once, by the socket
// read, and belongs to whoever receives the capsule.
func (c *TCPClient) readLoop() {
	defer c.loops.Done()
	r := bufio.NewReaderSize(c.conn, 256<<10)
	for {
		frame, err := readFrameInto(r, nil)
		if err != nil {
			c.fail(err)
			return
		}
		var rsp ResponseCapsule
		if _, err := decodeResponseAliased(&rsp, frame); err != nil {
			c.fail(err)
			return
		}
		c.mu.Lock()
		call := c.pending[rsp.CID]
		delete(c.pending, rsp.CID)
		if call != nil {
			c.gate.OnCompletion(nvme.Completion{Status: rsp.Status, Credit: rsp.Credit},
				int64(time.Since(call.sentAt)))
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
