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

func readFrame(r *bufio.Reader) ([]byte, error) {
	return readFrameInto(r, nil)
}

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

// framePool recycles encode buffers for frames whose ownership passes
// through a writer goroutine: the sender encodes into a pooled buffer and
// the writer returns it after the socket write.
var framePool = sync.Pool{New: func() any { return new(frameBuf) }}

// frameBuf holds one complete wire frame: the 4-byte big-endian length
// prefix and the capsule payload, contiguous. Senders append the payload
// after the reserved prefix and seal() before handing the frame to a
// writer, so every frame reaches the socket in a single Write.
type frameBuf struct{ b []byte }

func getFrame() *frameBuf {
	f := framePool.Get().(*frameBuf)
	f.b = append(f.b[:0], 0, 0, 0, 0)
	return f
}

// seal stamps the length prefix once the payload is appended.
func (f *frameBuf) seal() {
	binary.BigEndian.PutUint32(f.b[:4], uint32(len(f.b)-4))
}

func putFrame(f *frameBuf) { framePool.Put(f) }

// TCPClient is the initiator side: it multiplexes async commands over one
// connection and applies the scheme's client-side gate (credit or PARDA).
type TCPClient struct {
	conn net.Conn
	wmu  sync.Mutex
	bw   *bufio.Writer

	mu      sync.Mutex
	gate    Gater
	pending map[uint16]*pendingCall
	queue   []*pendingCall // gated locally
	nextCID uint16
	err     error

	closed chan struct{}
}

type pendingCall struct {
	cmd    *CommandCapsule
	sentAt time.Time // stamped by sendLocked: the gate's latency signal
	done   chan callResult
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
		bw:      bufio.NewWriter(conn),
		gate:    NewGater(scheme),
		pending: map[uint16]*pendingCall{},
		closed:  make(chan struct{}),
	}
	go c.readLoop()
	return c, nil
}

// Close tears down the connection; outstanding calls fail.
func (c *TCPClient) Close() error {
	err := c.conn.Close()
	<-c.closed
	return err
}

func (c *TCPClient) readLoop() {
	defer close(c.closed)
	r := bufio.NewReaderSize(c.conn, 256<<10)
	for {
		frame, err := readFrame(r)
		if err != nil {
			c.fail(err)
			return
		}
		rsp, _, err := DecodeResponse(frame)
		if err != nil {
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
			call.done <- callResult{rsp: rsp}
		}
	}
}

func (c *TCPClient) fail(err error) {
	c.mu.Lock()
	c.err = err
	calls := make([]*pendingCall, 0, len(c.pending)+len(c.queue))
	for cid, call := range c.pending {
		delete(c.pending, cid)
		calls = append(calls, call)
	}
	calls = append(calls, c.queue...)
	c.queue = nil
	c.mu.Unlock()
	for _, call := range calls {
		call.done <- callResult{err: err}
	}
}

// Go issues a command asynchronously, respecting the flow-control gate;
// the returned channel receives exactly one result.
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

// sendLocked assigns a CID and writes the frame; c.mu must be held.
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
	frame := getFrame()
	frame.b = AppendCommand(frame.b, call.cmd)
	frame.seal()
	go func() {
		c.wmu.Lock()
		defer c.wmu.Unlock()
		if _, err := c.bw.Write(frame.b); err == nil {
			c.bw.Flush()
		}
		putFrame(frame)
	}()
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
