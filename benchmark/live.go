package main

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"

	"gimbal/internal/fabric"
	"gimbal/internal/fault"
	"gimbal/internal/nvme"
	"gimbal/internal/obs"
	"gimbal/internal/sim"
	"gimbal/internal/ssd"
)

const (
	liveName     = "live-null-mixed"
	liveSSDs     = 2
	liveCapacity = 256 << 20
	liveConns    = 2
)

// liveServer is an in-process gimbald datapath: R=1 reactor over two NULL
// devices behind inert fault wrappers, registries attached the way
// cmd/gimbald attaches them in reactor mode. The transport is loopback TCP
// inside one process — a socket pair, not a link.
type liveServer struct {
	shards *sim.RealShards
	target *fabric.Target
	srv    *fabric.TCPReactors
	shard  *obs.Registry // reactor 0's registry (pipeline and tenant instruments)
}

func startLiveServer(scheme fabric.Scheme) (*liveServer, error) {
	s := &liveServer{shards: sim.NewRealShards(1)}
	devs := make([]ssd.Device, liveSSDs)
	for i := range devs {
		devs[i] = fault.Wrap(s.shards.Shard(0), ssd.NewNull(s.shards.Shard(0), liveCapacity, 0))
	}
	s.target = fabric.NewReactorTarget(s.shards, devs, fabric.DefaultTargetConfig(scheme))
	s.shard = obs.NewRegistry()
	s.shard.GatherLock = s.shards.Shard(0)
	hub := obs.NewHub(obs.NewRegistry()) // the hub registry holds the transport gauges only
	s.shards.Lock()
	s.target.AttachObsSharded(hub, []*obs.Registry{s.shard, s.shard})
	s.shards.Unlock()
	srv, err := fabric.ServeTCPReactors(s.shards, s.target, "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("live server: %w", err)
	}
	srv.AttachObs(hub, []*obs.Registry{s.shard})
	s.srv = srv
	return s, nil
}

// shutdown drains and stops the server, returning how long that took.
func (s *liveServer) shutdown() (time.Duration, error) {
	t0 := time.Now()
	err := s.srv.Shutdown(time.Second)
	return time.Since(t0), err
}

// countingConn counts the client's socket calls: the batching the client
// and the server's writer achieve shows as calls per IO.
type countingConn struct {
	net.Conn
	reads, writes int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads++
	return c.Conn.Read(p)
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes++
	return c.Conn.Write(p)
}

// liveOp is one kind of command a phase issues.
type liveOp struct {
	op   nvme.Opcode
	size int // bytes read or written
}

var (
	liveRead4K   = liveOp{nvme.OpRead, 4096}
	liveWrite64K = liveOp{nvme.OpWrite, 64 << 10}
)

// pendingCmd is what the client remembers of an outstanding command.
type pendingCmd struct {
	sentAt  int64 // ns since the client's epoch
	wantLen int   // response payload bytes expected
	live    bool
}

// liveClient is one connection's pipelined raw-capsule initiator. It is
// deliberately light — frames are built with the public encoder, responses
// are checked field by field without copying payloads — so that the target,
// not the load generator, is what the numbers price.
type liveClient struct {
	conn  *countingConn
	nsid  uint8
	rng   *sim.RNG
	epoch time.Time

	wbuf    []byte
	rbuf    []byte
	rn      int // valid bytes in rbuf
	payload []byte
	cmd     fabric.CommandCapsule
	pend    []pendingCmd // indexed by CID
	freeCID []uint16

	attempted, completed, failed int64
	lat                          *fineHist // per-IO wall latency of the current batch

	// Traced pass: spans around the four calls, and a hook run after each
	// flush (samples the server's in-flight gauge).
	sp    *liveSpans
	probe func()
}

func dialLive(addr string, nsid uint8, seed uint64) (*liveClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("live client: %w", err)
	}
	c := &liveClient{
		conn:    &countingConn{Conn: conn},
		nsid:    nsid,
		rng:     sim.NewRNG(seed),
		epoch:   time.Now(),
		rbuf:    make([]byte, 1<<20),
		payload: make([]byte, liveWrite64K.size),
		pend:    make([]pendingCmd, 1<<16),
		lat:     newFineHist(),
	}
	for i := range c.payload {
		c.payload[i] = byte(c.rng.Uint64())
	}
	for cid := 1 << 16; cid > 0; cid-- {
		c.freeCID = append(c.freeCID, uint16(cid-1))
	}
	return c, nil
}

func (c *liveClient) now() int64 { return int64(time.Since(c.epoch)) }

// stage appends one command frame to the write buffer; stamp sets its send
// time when the buffer is flushed.
func (c *liveClient) stage(op liveOp) {
	n := len(c.freeCID) - 1
	cid := c.freeCID[n]
	c.freeCID = c.freeCID[:n]
	c.cmd = fabric.CommandCapsule{Opcode: op.op, CID: cid, NSID: c.nsid, Priority: nvme.PriorityNormal,
		SLBA: uint64(c.rng.Int63n(int64(liveCapacity-op.size)/4096 + 1)), Length: uint32(op.size)}
	want := op.size
	if op.op == nvme.OpWrite {
		c.cmd.Data = c.payload[:op.size]
		want = 0
	}
	if c.sp != nil {
		c.sp.begin(spanEncode)
	}
	c.wbuf = binary.BigEndian.AppendUint32(c.wbuf, uint32(fabric.CommandWireLen(len(c.cmd.Data))))
	c.wbuf = fabric.AppendCommand(c.wbuf, &c.cmd)
	if c.sp != nil {
		c.sp.end()
	}
	c.pend[cid] = pendingCmd{wantLen: want, live: true}
	c.attempted++
}

// flush writes the staged frames with one Write.
func (c *liveClient) flush() error {
	if len(c.wbuf) == 0 {
		return nil
	}
	if c.sp != nil {
		c.sp.begin(spanWrite)
	}
	_, err := c.conn.Write(c.wbuf)
	if c.sp != nil {
		c.sp.end()
	}
	c.wbuf = c.wbuf[:0]
	if c.probe != nil {
		c.probe()
	}
	return err
}

// stamp sets the send time of every command staged since the last flush.
// Closed-loop phases call it just before flush: commands of one Write
// leave together.
func (c *liveClient) stamp(cids []uint16, t int64) {
	for _, cid := range cids {
		c.pend[cid].sentAt = t
	}
}

// response is the header of one response capsule as the client checks it.
type response struct {
	cid     uint16
	wellMet bool // response tag, status OK, frame length consistent with the payload length
	dataLen int
}

// read blocks for one Read and hands every complete response frame in the
// buffer to fn, with the time the Read returned; a partial frame stays
// buffered for the next call.
func (c *liveClient) read(fn func(r response, now int64)) error {
	if c.sp != nil {
		c.sp.begin(spanRead)
	}
	n, err := c.conn.Read(c.rbuf[c.rn:])
	if c.sp != nil {
		c.sp.end()
	}
	if err != nil {
		return err
	}
	c.rn += n
	now := c.now()
	if c.sp != nil {
		c.sp.begin(spanDecode)
		defer c.sp.end()
	}
	pos := 0
	for c.rn-pos >= 4 {
		flen := int(binary.BigEndian.Uint32(c.rbuf[pos:]))
		if flen < fabric.ResponseWireLen(0) || flen > len(c.rbuf)-4 {
			return fmt.Errorf("live client: response frame of %d bytes", flen)
		}
		if c.rn-pos < 4+flen {
			break
		}
		// Response capsule: tag, CID, status, credit, data length, data.
		f := c.rbuf[pos+4 : pos+4+flen]
		pos += 4 + flen
		dataLen := int(binary.BigEndian.Uint32(f[9:]))
		fn(response{
			cid:     binary.BigEndian.Uint16(f[1:]),
			dataLen: dataLen,
			wellMet: f[0] == 0x02 && nvme.Status(binary.BigEndian.Uint16(f[3:])) == nvme.StatusOK &&
				flen == fabric.ResponseWireLen(dataLen),
		}, now)
	}
	copy(c.rbuf, c.rbuf[pos:c.rn])
	c.rn -= pos
	return nil
}

// receive consumes one Read's worth of responses against the pending
// table, calling onDone for each outstanding command they complete: with
// its latency from sentAt to the return of the Read, or -1 if the response
// does not match its command (which counts as failed).
func (c *liveClient) receive(onDone func(latNs int64)) error {
	return c.read(func(r response, now int64) {
		p := &c.pend[r.cid]
		if !p.live {
			c.failed++ // not an outstanding command: nothing to release
			return
		}
		p.live = false
		c.freeCID = append(c.freeCID, r.cid)
		if !r.wellMet || r.dataLen != p.wantLen {
			c.failed++
			onDone(-1)
			return
		}
		c.completed++
		onDone(now - p.sentAt)
	})
}

// closedLoop keeps qd commands of kind op outstanding until n have
// completed, then returns with the pipeline empty. Latencies go to c.lat.
//
// Replacements are submitted in groups of qd/2: the client reaps whatever a
// Read returns but writes only once half the queue depth is staged (or
// nothing is left on the wire). A client that answers every Read with one
// Write of the same size lets the burst size emerge from the ping-pong with
// the server, and that has two stable cycles on the Gimbal rig — full
// bursts, or bursts the rate pacer has split — a whole run stays in one of
// them, and they differ by 25% in IOPS. Fixed groups pin the client's half
// of the cycle.
func (c *liveClient) closedLoop(op liveOp, qd, n int) error {
	group := qd / 2
	if group < 1 {
		group = 1
	}
	sent, done, inflight := 0, 0, 0
	var staged []uint16
	fill := func() {
		for inflight < qd && sent < n {
			c.stage(op)
			staged = append(staged, c.cmd.CID)
			sent++
			inflight++
		}
	}
	send := func() error {
		onWire := inflight - len(staged)
		if len(staged) == 0 || (len(staged) < group && onWire > 0 && sent < n) {
			return nil
		}
		c.stamp(staged, c.now())
		staged = staged[:0]
		return c.flush()
	}
	fill()
	if err := send(); err != nil {
		return err
	}
	for done < n {
		err := c.receive(func(lat int64) {
			done++
			inflight--
			if lat >= 0 {
				c.lat.record(lat)
			}
		})
		if err != nil {
			return err
		}
		fill()
		if err := send(); err != nil {
			return err
		}
	}
	return nil
}

// liveRig is one server with its two client connections.
type liveRig struct {
	srv     *liveServer
	clients []*liveClient
}

// buildLiveRig is the live plane's cold set-up: listen, dial both
// connections, and one round trip on each.
func buildLiveRig(scheme fabric.Scheme, seed uint64) (*liveRig, error) {
	srv, err := startLiveServer(scheme)
	if err != nil {
		return nil, err
	}
	r := &liveRig{srv: srv}
	for i := 0; i < liveConns; i++ {
		c, err := dialLive(srv.srv.Addr(), uint8(i), seed*liveConns+uint64(i)+1)
		if err != nil {
			r.close()
			return nil, err
		}
		r.clients = append(r.clients, c)
		if err := c.closedLoop(liveRead4K, 1, 1); err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

// close hangs up the clients and shuts the server down gracefully; it
// returns once every goroutine of the rig has ended.
func (r *liveRig) close() (time.Duration, error) {
	for _, c := range r.clients {
		c.conn.Close()
	}
	return r.srv.shutdown()
}

// account returns the rig's totals and checks attempted = completed +
// failed on every connection.
func (r *liveRig) account() (attempted, failed int64, err error) {
	for i, c := range r.clients {
		if c.attempted != c.completed+c.failed {
			return 0, 0, fmt.Errorf("live conn %d: attempted %d != completed %d + failed %d",
				i, c.attempted, c.completed, c.failed)
		}
		attempted += c.attempted
		failed += c.failed
	}
	return attempted, failed, nil
}

// liveBatch is the outcome of one fixed-work batch.
type liveBatch struct {
	wallNs   int64
	ios      int64
	connNs   []int64 // per connection: its own duration
	p50, p99 float64 // µs over all connections' IOs of the batch
	slow     float64 // the yardstick's slowdown next to the batch; 1 if none ran
}

// batch runs perConn IOs of op at depth qd on the first conns connections
// concurrently and waits for all of them.
func (r *liveRig) batch(op liveOp, qd, perConn, conns int) (liveBatch, error) {
	b := liveBatch{connNs: make([]int64, conns), slow: 1}
	errs := make([]error, conns)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < conns; i++ {
		c := r.clients[i]
		c.lat.reset()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = c.closedLoop(op, qd, perConn)
			b.connNs[i] = time.Since(t0).Nanoseconds()
		}(i)
	}
	wg.Wait()
	b.wallNs = time.Since(t0).Nanoseconds()
	all := newFineHist()
	for i := 0; i < conns; i++ {
		if errs[i] != nil {
			return b, fmt.Errorf("live conn %d: %w", i, errs[i])
		}
		all.merge(r.clients[i].lat)
	}
	b.ios = int64(all.total)
	b.p50 = all.quantile(0.5) / 1e3
	b.p99 = all.quantile(0.99) / 1e3
	return b, nil
}
