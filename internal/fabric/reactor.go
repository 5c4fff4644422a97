package fabric

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gimbal/internal/nvme"
	"gimbal/internal/obs"
	"gimbal/internal/sim"
	"gimbal/internal/ssd"
)

// This file is the live reactor datapath (DESIGN.md §4.1), the one TCP
// target in the tree. Each SSD pipeline runs on one RealScheduler shard
// owned by one reactor goroutine — shared-nothing, like the per-SSD SPDK
// reactors of the paper's Stingray prototype — and bounded SPSC rings
// carry work between the transport goroutines:
//
//	conn reader ──cmd ring──▶ reactor (shard j) ──cpl ring──▶ conn writer
//	     ▲                                                        │
//	     └───────────────────── free ring ◀───────────────────────┘
//
// A connection's ioSlots cycle through those rings. The reader creates one
// whenever the free ring is empty, up to connSlots, so a connection holds
// as many slots (and write-payload buffers) as its own deepest pipelining
// needed and an idle one holds none. Every ring holds connSlots entries, so
// no push can ever fail and the cap doubles as end-to-end flow control: a
// client pipelining more than connSlots commands stalls the reader until
// responses drain. All three stages batch — readers stage up to readBatch
// decoded frames per ring publish, reactors submit popped batches under
// one shard-lock acquisition, writers coalesce response frames into one
// writev — so per-IO cost amortizes syscalls, atomics, and futex wakeups.
// Payload bytes cross user space once in each direction: a write's go from
// the socket into the slot (but for what its header's own socket read
// brought along), a read's go to the socket from where the device left
// them. The steady-state wall-clock path allocates nothing per IO.

const (
	// readBatch caps the frames a connection reader stages before
	// publishing to the command rings and ringing the reactor doorbells.
	readBatch = 64
	// submitBatch caps the commands a reactor submits per shard-lock
	// acquisition (also bounding how late the shard's due events — device
	// completions, the pacer — fire: the next Lock is what runs them).
	submitBatch = 64
	// writeBatch is the writer's per-ring drain stride; a writev gathers
	// everything drained in one pass.
	writeBatch = 64
	// connSlots caps the per-connection IO slot pool: the pipelining depth
	// a single session can keep in flight inside the target.
	connSlots = 512
	// slotBufKeep is the largest write-payload buffer a slot keeps across
	// cycles, twice the 128 KiB large IO. Frames run to maxFrame, and a
	// buffer grown for one would otherwise stay that size for the life of
	// the connection — times connSlots for a peer that pipelines jumbo
	// writes once. It is also the most a reader asks the socket for at once.
	slotBufKeep = 256 << 10

	// maxReadLen is the largest read whose response still fits one frame;
	// anything longer would emit a frame the initiator's reader rejects.
	maxReadLen = maxFrame - rspHeaderLen
	// maxSLBA is the last block address whose byte offset, plus any 32-bit
	// length, still fits the int64 the bounds check downstream adds in.
	maxSLBA = (math.MaxInt64 - math.MaxUint32) / 4096
)

// zeroSlab is where the simulated SSD leaves read data: it stores none, so
// every payload is zeroes. The writer points iovecs at it — one per
// len(zeroSlab) of payload — and the bytes go from here to the socket
// without passing through the slot.
var zeroSlab [64 << 10]byte

// ioSlot carries one command through the reactor datapath. The embedded
// capsule, IO, and response header are reused across cycles, and doneFn
// is bound once, so a slot's steady-state trip allocates nothing.
type ioSlot struct {
	conn *rconn
	cond *conduit
	cmd  CommandCapsule
	io   nvme.IO
	// The sealed response: length prefix and capsule header here, followed
	// on the wire by dataLen bytes of the zero slab.
	out     [4 + rspHeaderLen]byte
	dataLen int

	cid      uint16
	wantData bool
	size     int

	doneFn func(*nvme.IO, nvme.Completion)
}

// conduit is the ring pair of one (connection, reactor) edge, created
// lazily by the reader on the first command routed to that reactor.
type conduit struct {
	conn *rconn
	r    *reactor

	cmd *spsc[*ioSlot] // reader → reactor: decoded commands
	cpl *spsc[*ioSlot] // shard context → writer: sealed responses

	// tenants maps NSID → tenant record for this connection's namespaces
	// owned by this reactor; touched only under the reactor's shard lock.
	tenants map[uint8]*tenantRec

	// staged is the reader's unpublished batch (reader-owned).
	staged []*ioSlot

	// dead marks the conduit for retirement; the owning reactor drains
	// and deregisters it from its own goroutine, keeping the cmd ring
	// single-consumer to the end.
	dead atomic.Bool
}

// reactor owns one RealScheduler shard and every pipeline built on it
// (SSDs i with i % R == idx). It is the only goroutine that takes its
// shard lock on the submit path; completions ride the same lock: a busy
// reactor fires its own due device events inside the Lock it takes to
// submit, the shard's bell fires them when it is idle.
type reactor struct {
	idx   int
	srv   *TCPReactors
	shard *sim.RealScheduler
	wake  *waker
	stop  atomic.Bool

	mu    sync.Mutex                 // serializes conduit-list rewrites
	conds atomic.Pointer[[]*conduit] // copy-on-write list the loop iterates

	rx, tx atomic.Int64 // capsules in / responses out, for /reactors and metrics
	// txWrites counts the writev calls that carried this reactor's responses;
	// tx ÷ txWrites is the writers' batching factor.
	txWrites atomic.Int64
	// slotStalls counts the times a reader feeding this reactor parked with
	// connSlots commands in flight; rxReads the socket reads its commands
	// took: rx ÷ rxReads is the readers' batching factor.
	slotStalls, rxReads atomic.Int64
}

// rconn is one live connection: a reader goroutine, a writer goroutine,
// the free-slot ring between them, and the conduits to each reactor.
type rconn struct {
	srv  *TCPReactors
	conn net.Conn

	free  *spsc[*ioSlot] // writer → reader: recycled slots
	rWake *waker         // reader's doorbell (free slots returned)
	wWake *waker         // writer's doorbell (completions published)

	conds     atomic.Pointer[[]*conduit] // writer-visible conduit list
	byReactor []*conduit                 // reader-owned index by reactor

	slots       atomic.Int32 // slots created so far; only the reader writes it
	outstanding atomic.Int64 // slots taken from free and not yet returned
	readerDone  atomic.Bool
	readerExit  chan struct{}
}

// TCPReactors serves a sharded Target over TCP with per-SSD reactors:
// ingress for SSD i runs on shard i%R under that shard's lock only.
type TCPReactors struct {
	shards *sim.RealShards
	target *Target
	ln     net.Listener
	rs     []*reactor

	wg      sync.WaitGroup // accept loop + per-connection goroutines
	rwg     sync.WaitGroup // reactor goroutines
	closed  atomic.Bool
	closing atomic.Bool

	tenantID atomic.Int64

	connMu   sync.Mutex
	conns    map[*rconn]struct{}
	sessions atomic.Int64
	inflight atomic.Int64
}

// NewReactorTarget builds a Target whose pipeline i runs on shard i%N —
// the layout ServeTCPReactors requires.
func NewReactorTarget(shards *sim.RealShards, devs []ssd.Device, cfg TargetConfig) *Target {
	clks := make([]sim.Scheduler, len(devs))
	for i := range clks {
		clks[i] = shards.Shard(i % shards.N())
	}
	return NewShardedTarget(clks, devs, cfg)
}

// ServeTCPReactors starts the sharded datapath on addr: one reactor
// goroutine per shard, then the accept loop. The target must map pipeline
// i onto shards.Shard(i % shards.N()) (NewReactorTarget does).
func ServeTCPReactors(shards *sim.RealShards, target *Target, addr string) (*TCPReactors, error) {
	for i := 0; i < target.SSDs(); i++ {
		if target.Pipeline(i).Clock() != shards.Shard(i%shards.N()) {
			return nil, fmt.Errorf("fabric: pipeline %d not built on shard %d (use NewReactorTarget)", i, i%shards.N())
		}
	}
	lc := net.ListenConfig{Control: windowCC}
	ln, err := lc.Listen(context.Background(), "tcp", addr)
	if err != nil {
		return nil, err
	}
	t := &TCPReactors{shards: shards, target: target, ln: ln, conns: map[*rconn]struct{}{}}
	for j := 0; j < shards.N(); j++ {
		r := &reactor{idx: j, srv: t, shard: shards.Shard(j), wake: newWaker()}
		r.conds.Store(&[]*conduit{})
		t.rs = append(t.rs, r)
		t.rwg.Add(1)
		go r.run()
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the listening address.
func (t *TCPReactors) Addr() string { return t.ln.Addr().String() }

// Reactors returns the shard count.
func (t *TCPReactors) Reactors() int { return len(t.rs) }

// Inflight returns the number of commands currently inside the target.
func (t *TCPReactors) Inflight() int64 { return t.inflight.Load() }

// AttachObs registers the transport's telemetry. regs[j], when provided
// and non-nil, receives reactor j's gauges and must be the per-reactor
// registry shard whose GatherLock is shard j: the clock-read count is the
// shard's own field, read under that lock. A nil slice (or entry) lands
// the rest in the hub registry and leaves clock reads to ReactorStats.
// Call before traffic.
func (t *TCPReactors) AttachObs(h *obs.Hub, regs []*obs.Registry) {
	if regs != nil && len(regs) != len(t.rs) {
		panic("fabric: AttachObs needs one registry per reactor")
	}
	h.Reg.GaugeFunc("fabric_open_sessions", "", func() float64 { return float64(t.sessions.Load()) })
	h.Reg.GaugeFunc("fabric_inflight_commands", "", func() float64 { return float64(t.inflight.Load()) })
	for j, r := range t.rs {
		reg := h.Reg
		if regs != nil && regs[j] != nil {
			reg = regs[j]
		}
		lb := obs.L("reactor", strconv.Itoa(j))
		rr := r
		reg.GaugeFunc("fabric_reactor_rx_capsules", lb, func() float64 { return float64(rr.rx.Load()) })
		reg.GaugeFunc("fabric_reactor_rx_reads", lb, func() float64 { return float64(rr.rxReads.Load()) })
		reg.GaugeFunc("fabric_reactor_tx_capsules", lb, func() float64 { return float64(rr.tx.Load()) })
		reg.GaugeFunc("fabric_reactor_tx_writes", lb, func() float64 { return float64(rr.txWrites.Load()) })
		reg.GaugeFunc("fabric_reactor_slots", lb, func() float64 { return float64(rr.slots()) })
		reg.GaugeFunc("fabric_reactor_slot_stalls", lb, func() float64 { return float64(rr.slotStalls.Load()) })
		reg.Help("fabric_reactor_rx_capsules", "command capsules received by the reactor")
		reg.Help("fabric_reactor_rx_reads", "socket reads that brought the reactor's command capsules in")
		reg.Help("fabric_reactor_tx_capsules", "response capsules sent by the reactor")
		reg.Help("fabric_reactor_tx_writes", "writev calls that carried the reactor's responses")
		reg.Help("fabric_reactor_slots", "IO slots created by the live connections feeding the reactor")
		reg.Help("fabric_reactor_slot_stalls", "times a connection reader parked at the slot cap")
		if reg != h.Reg {
			reg.GaugeFunc("fabric_reactor_clock_reads", lb, func() float64 { return float64(rr.shard.ClockReads()) })
			reg.Help("fabric_reactor_clock_reads", "samples of the shard clock (one per entry into the shard)")
		}
	}
}

// ReactorStat is one reactor's row in the /reactors admin endpoint.
type ReactorStat struct {
	Reactor    int   `json:"reactor"`
	SSDs       []int `json:"ssds"`
	Conduits   int   `json:"conduits"`
	RxCapsules int64 `json:"rx_capsules"`
	// RxReads counts the socket reads that brought those capsules in:
	// RxCapsules ÷ RxReads is the batching of small frames, and a large
	// write costs two or three — its header, then its payload.
	RxReads    int64 `json:"rx_reads"`
	TxCapsules int64 `json:"tx_capsules"`
	// TxWrites counts the writev calls that carried this reactor's responses
	// (one that gathers responses of several reactors counts in each row):
	// TxCapsules ÷ TxWrites is the batching the connection writers achieve.
	TxWrites int64 `json:"tx_writes"`
	// ClockReads counts samples of the shard clock: one per command
	// submitted plus one per fired event, bell ring and admin entry. Timers
	// is the number of events pending on the shard (device completions,
	// pacing and housekeeping timers).
	ClockReads int64 `json:"clock_reads"`
	Timers     int   `json:"timers"`
	// Slots is the number of IO slots the live connections with a conduit
	// to this reactor have created (a connection that spans reactors counts
	// in each row, as it does in Conduits); SlotStalls counts the times one
	// of their readers parked at the connSlots cap.
	Slots      int   `json:"slots"`
	SlotStalls int64 `json:"slot_stalls"`
}

// ReactorStats snapshots the shard → SSD mapping and per-reactor traffic.
// It takes each shard's lock in turn, so the caller must hold none.
func (t *TCPReactors) ReactorStats() []ReactorStat {
	out := make([]ReactorStat, len(t.rs))
	for j, r := range t.rs {
		st := ReactorStat{Reactor: j, RxCapsules: r.rx.Load(), RxReads: r.rxReads.Load(), TxCapsules: r.tx.Load(),
			TxWrites: r.txWrites.Load(), Slots: r.slots(), SlotStalls: r.slotStalls.Load()}
		r.shard.Lock()
		st.ClockReads, st.Timers = r.shard.ClockReads(), r.shard.Pending()
		r.shard.Unlock()
		for i := 0; i < t.target.SSDs(); i++ {
			if i%len(t.rs) == j {
				st.SSDs = append(st.SSDs, i)
			}
		}
		st.Conduits = len(*r.conds.Load())
		out[j] = st
	}
	return out
}

// Close force-closes the listener and every connection, waits for the
// transport goroutines, then stops the reactors (which retire the
// orphaned conduits on the way out).
func (t *TCPReactors) Close() error {
	t.closed.Store(true)
	t.closing.Store(true)
	err := t.ln.Close()
	t.kickConns()
	t.wg.Wait()
	t.stopReactors()
	return err
}

// Shutdown is the graceful variant: stop accepting, wait up to timeout
// for in-flight commands to drain so their completions reach clients,
// then close the rest. "In flight" is every slot a connection has out —
// in a command ring, at the device, waiting for the writer — not only what
// a reactor has submitted. Commands still in a socket or a reader's buffer
// are in no count, and a reactor may pop some as the connections close:
// the last wait gives the device what is left of the timeout to finish
// those, so that nothing completes into a server that has returned.
func (t *TCPReactors) Shutdown(timeout time.Duration) error {
	t.closed.Store(true)
	err := t.ln.Close()
	deadline := time.Now().Add(timeout)
	waitUntil(deadline, func() bool { return t.inflight.Load() == 0 && t.outstanding() == 0 })
	t.closing.Store(true)
	t.kickConns()
	t.wg.Wait()
	t.stopReactors()
	waitUntil(deadline, func() bool { return t.inflight.Load() == 0 })
	return err
}

// waitUntil polls done until it holds or the deadline passes, backing off
// from a pause short enough that a writer one step from done costs an idle
// Shutdown next to nothing.
func waitUntil(deadline time.Time, done func() bool) {
	for pause := 10 * time.Microsecond; !done() && time.Now().Before(deadline); pause = min(2*pause, 2*time.Millisecond) {
		time.Sleep(pause)
	}
}

// outstanding sums the slots the live connections have taken and not yet
// recycled.
func (t *TCPReactors) outstanding() int64 {
	t.connMu.Lock()
	defer t.connMu.Unlock()
	var n int64
	for c := range t.conns {
		n += c.outstanding.Load()
	}
	return n
}

func (t *TCPReactors) kickConns() {
	t.connMu.Lock()
	for c := range t.conns {
		c.conn.Close()
		c.rWake.wake()
		c.wWake.wake()
	}
	t.connMu.Unlock()
}

func (t *TCPReactors) stopReactors() {
	for _, r := range t.rs {
		r.stop.Store(true)
		r.wake.wake()
	}
	t.rwg.Wait()
}

func (t *TCPReactors) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c := &rconn{
			srv:        t,
			conn:       conn,
			free:       newSPSC[*ioSlot](connSlots),
			rWake:      newWaker(),
			wWake:      newWaker(),
			byReactor:  make([]*conduit, len(t.rs)),
			readerExit: make(chan struct{}),
		}
		c.conds.Store(&[]*conduit{})
		t.connMu.Lock()
		if t.closed.Load() {
			t.connMu.Unlock()
			conn.Close()
			continue
		}
		t.conns[c] = struct{}{}
		t.sessions.Add(1)
		t.connMu.Unlock()
		t.wg.Add(2)
		go c.writeLoop()
		go c.readLoop()
	}
}

// reactorFor routes an NSID to its owning reactor. Invalid namespaces go
// to reactor 0, which produces the error reply under its shard lock.
func (t *TCPReactors) reactorFor(nsid uint8) int {
	if int(nsid) >= t.target.SSDs() {
		return 0
	}
	return int(nsid) % len(t.rs)
}

// conduit returns (creating on first use) the ring pair to reactor j.
// Only the reader calls this; the copy-on-write list publications make
// the new conduit visible to the writer and the reactor before any
// command lands in its rings.
func (c *rconn) conduit(j int) *conduit {
	if cd := c.byReactor[j]; cd != nil {
		return cd
	}
	cd := &conduit{
		conn:    c,
		r:       c.srv.rs[j],
		cmd:     newSPSC[*ioSlot](connSlots),
		cpl:     newSPSC[*ioSlot](connSlots),
		tenants: map[uint8]*tenantRec{},
	}
	c.byReactor[j] = cd
	old := *c.conds.Load()
	nw := make([]*conduit, len(old)+1)
	copy(nw, old)
	nw[len(old)] = cd
	c.conds.Store(&nw)
	cd.r.addConduit(cd)
	return cd
}

// takeSlot pops a free slot, creates one while the connection has fewer
// than connSlots, and sleeps only at that cap (the natural backpressure
// bound on pipelining depth). Returns nil when the server is closing.
func (c *rconn) takeSlot() *ioSlot {
	for {
		if s, ok := c.free.pop(); ok {
			c.outstanding.Add(1)
			return s
		}
		if c.slots.Load() < connSlots {
			c.slots.Add(1)
			s := &ioSlot{conn: c}
			s.doneFn = s.finish
			c.outstanding.Add(1)
			return s
		}
		if c.srv.closing.Load() {
			return nil
		}
		c.rWake.prepareSleep()
		if !c.free.empty() || c.srv.closing.Load() {
			c.rWake.cancelSleep()
			continue
		}
		for _, cd := range c.byReactor {
			if cd != nil {
				cd.r.slotStalls.Add(1)
			}
		}
		c.rWake.sleep()
	}
}

// readLoop receives commands into slots and publishes them to the owning
// reactors in batches: it keeps staging while frames are already buffered
// (up to readBatch), then flushes every touched conduit with one ring
// publish and one doorbell each. The flush runs ahead of every read of the
// socket: otherwise a client waiting for responses to the staged commands
// would deadlock against a reader waiting for the rest of a frame.
func (c *rconn) readLoop() {
	t := c.srv
	defer t.wg.Done()
	fr := newCapsuleReader(c.conn, rxBufSize)
	var touched []*conduit
	nstaged := 0
	flush := func() {
		for _, cd := range touched {
			if len(cd.staged) == 0 {
				continue
			}
			if cd.cmd.pushBatch(cd.staged) != len(cd.staged) {
				panic("fabric: command ring overflow")
			}
			cd.staged = cd.staged[:0]
			cd.r.wake.wake()
		}
		touched = touched[:0]
		nstaged = 0
	}
	fr.before = flush
	for {
		// The header waits in the read buffer, so the reader holds no slot
		// while it waits for the peer: an idle connection pins none.
		hdr, err := fr.head(capCommand, cmdHeaderLen)
		if err != nil {
			break
		}
		s := c.takeSlot()
		if s == nil {
			break
		}
		decodeCommandHeader(&s.cmd, hdr)
		if err := fr.body(&s.cmd.Data); err != nil {
			// slot dropped, dies with the connection
			c.outstanding.Add(-1)
			break
		}
		cd := c.conduit(t.reactorFor(s.cmd.NSID))
		s.cond = cd
		if fr.reads > 0 { // charged to the reactor whose command they brought
			cd.r.rxReads.Add(fr.reads)
			fr.reads = 0
		}
		if len(cd.staged) == 0 {
			touched = append(touched, cd)
		}
		cd.staged = append(cd.staged, s)
		nstaged++
		if nstaged >= readBatch {
			flush()
		}
	}
	flush()
	c.readerDone.Store(true)
	close(c.readerExit)
	c.wWake.wake()
}

// writeLoop drains the connection's completion rings and writes the
// gathered response frames with one writev, then recycles the slots. It
// exits once the reader is gone and every slot is home (or immediately on
// server close), then tears the connection down.
func (c *rconn) writeLoop() {
	t := c.srv
	defer t.wg.Done()
	defer c.teardown()
	var tmp [writeBatch]*ioSlot
	var slots []*ioSlot
	var bufs [][]byte
	// nb lives across iterations: net.Buffers.WriteTo advances the slice
	// through a pointer receiver, so a loop-local value would escape and
	// allocate per writev.
	var nb net.Buffers
	broken := false
	for {
		slots = slots[:0]
		for _, cd := range *c.conds.Load() {
			had := len(slots)
			for {
				n := cd.cpl.popBatch(tmp[:])
				if n == 0 {
					break
				}
				slots = append(slots, tmp[:n]...)
				if n < len(tmp) {
					break
				}
			}
			if len(slots) > had && !broken {
				cd.r.txWrites.Add(1) // the writev below carries them
			}
		}
		if len(slots) == 0 {
			if t.closing.Load() {
				return
			}
			if c.readerDone.Load() && c.outstanding.Load() == 0 {
				return
			}
			c.wWake.prepareSleep()
			if c.anyCpl() || t.closing.Load() ||
				(c.readerDone.Load() && c.outstanding.Load() == 0) {
				c.wWake.cancelSleep()
				continue
			}
			c.wWake.sleep()
			continue
		}
		if !broken {
			bufs = bufs[:0]
			for _, s := range slots {
				bufs = append(bufs, s.out[:])
				for rem := s.dataLen; rem > 0; rem -= len(zeroSlab) {
					bufs = append(bufs, zeroSlab[:min(rem, len(zeroSlab))])
				}
			}
			nb = net.Buffers(bufs)
			if _, err := nb.WriteTo(c.conn); err != nil {
				broken = true
			}
		}
		for _, s := range slots {
			if cap(s.cmd.Data) > slotBufKeep {
				s.cmd.Data = nil
			}
			if !c.free.push(s) {
				panic("fabric: free ring overflow")
			}
		}
		c.outstanding.Add(int64(-len(slots)))
		c.rWake.wake()
	}
}

func (c *rconn) anyCpl() bool {
	for _, cd := range *c.conds.Load() {
		if !cd.cpl.empty() {
			return true
		}
	}
	return false
}

// teardown retires the connection: waits for the reader, flags every
// conduit dead (their reactors drain and disconnect the tenants from
// shard context), and unregisters the session.
func (c *rconn) teardown() {
	t := c.srv
	<-c.readerExit
	for _, cd := range *c.conds.Load() {
		cd.dead.Store(true)
		cd.r.wake.wake()
	}
	t.connMu.Lock()
	delete(t.conns, c)
	t.sessions.Add(-1)
	t.connMu.Unlock()
	c.conn.Close()
}

// addConduit publishes a new conduit to the reactor's poll list.
func (r *reactor) addConduit(cd *conduit) {
	r.mu.Lock()
	old := *r.conds.Load()
	nw := make([]*conduit, len(old)+1)
	copy(nw, old)
	nw[len(old)] = cd
	r.conds.Store(&nw)
	r.mu.Unlock()
	r.wake.wake()
}

func (r *reactor) removeConduit(cd *conduit) {
	r.mu.Lock()
	old := *r.conds.Load()
	nw := make([]*conduit, 0, len(old))
	for _, x := range old {
		if x != cd {
			nw = append(nw, x)
		}
	}
	r.conds.Store(&nw)
	r.mu.Unlock()
}

// run is the reactor loop: poll every conduit's command ring, submit
// popped batches under one shard-lock acquisition, retire dead conduits,
// sleep when idle. Each command of a batch is its own entry into the shard
// and gets its own clock sample (Lock takes the first): a full batch holds
// the lock for tens of microseconds, and the submit stamp feeds the
// switch's latency monitor.
func (r *reactor) run() {
	defer r.srv.rwg.Done()
	var batch [submitBatch]*ioSlot
	for {
		did := false
		for _, cd := range *r.conds.Load() {
			if cd.dead.Load() {
				r.retire(cd)
				did = true
				continue
			}
			n := cd.cmd.popBatch(batch[:])
			if n == 0 {
				continue
			}
			did = true
			r.shard.Lock()
			for i, s := range batch[:n] {
				if i > 0 {
					r.shard.Tick()
				}
				r.submit(cd, s)
			}
			r.shard.Unlock()
		}
		if did {
			continue
		}
		if r.stop.Load() {
			return
		}
		r.wake.prepareSleep()
		if r.anyWork() || r.stop.Load() {
			r.wake.cancelSleep()
			continue
		}
		r.wake.sleep()
	}
}

// slots sums the IO slots created by the connections feeding this reactor.
func (r *reactor) slots() int {
	n := 0
	for _, cd := range *r.conds.Load() {
		n += int(cd.conn.slots.Load())
	}
	return n
}

func (r *reactor) anyWork() bool {
	for _, cd := range *r.conds.Load() {
		if cd.dead.Load() || !cd.cmd.empty() {
			return true
		}
	}
	return false
}

// retire removes a dead conduit: drop whatever commands are still queued
// (the connection is gone; the slots die with it) and disconnect its
// tenants so queued IOs abort instead of stranding scheduler state. Runs
// on the reactor goroutine, keeping the cmd ring single-consumer.
func (r *reactor) retire(cd *conduit) {
	r.removeConduit(cd)
	var batch [submitBatch]*ioSlot
	for cd.cmd.popBatch(batch[:]) > 0 {
	}
	r.shard.Lock()
	for _, rec := range cd.tenants {
		r.srv.target.Disconnect(rec)
	}
	r.shard.Unlock()
}

// submit injects one decoded command into its pipeline. Runs under the
// reactor's shard lock; allocates nothing in steady state (the tenant
// bootstrap on a namespace's first command is the one exception).
func (r *reactor) submit(cd *conduit, s *ioSlot) {
	t := r.srv
	r.rx.Add(1)
	t.inflight.Add(1)
	cmd := &s.cmd
	s.cid = cmd.CID
	s.wantData = cmd.Opcode == nvme.OpRead
	s.size = int(cmd.Length)
	// Everything a hostile capsule can break above the schedulers' own
	// bounds check (nvme.Submitter.Check: capacity, alignment, zero size)
	// is rejected here, before the command touches a pipeline.
	if int(cmd.NSID) >= t.target.SSDs() || cmd.Priority >= nvme.NumPriorities {
		s.finish(nil, nvme.Completion{Status: nvme.StatusInvalidOp})
		return
	}
	if cmd.SLBA > maxSLBA || (s.wantData && cmd.Length > maxReadLen) {
		s.finish(nil, nvme.Completion{Status: nvme.StatusInvalidLBA})
		return
	}
	rec := cd.tenants[cmd.NSID]
	if rec == nil {
		id := int(t.tenantID.Add(1))
		rec = t.target.Register(int(cmd.NSID), nvme.NewTenant(id, fmt.Sprintf("conn%d-ns%d", id, cmd.NSID)))
		cd.tenants[cmd.NSID] = rec
	}
	s.io = nvme.IO{
		Op:       cmd.Opcode,
		Offset:   int64(cmd.SLBA) * 4096,
		Size:     s.size,
		Priority: cmd.Priority,
		Tenant:   rec.tenant,
		Origin:   rec.pipe.clk.Now(), // capsule receipt: the target's view of the send
		Done:     s.doneFn,
	}
	t.target.Ingress(rec, &s.io)
}

// finish is the slot's pre-bound completion: seal the response header in
// place, record how much payload follows it (a read's data; the writer
// sends it by reference) and publish the slot to the writer. Always runs in
// the owning shard's context — the reactor's submit path or a device event
// fired under the same lock — so the cpl ring keeps a single serialized
// producer.
func (s *ioSlot) finish(_ *nvme.IO, cpl nvme.Completion) {
	t := s.conn.srv
	t.inflight.Add(-1)
	s.cond.r.tx.Add(1)
	s.dataLen = 0
	if s.wantData && cpl.Status == nvme.StatusOK {
		s.dataLen = s.size
	}
	out := binary.BigEndian.AppendUint32(s.out[:0], uint32(rspHeaderLen+s.dataLen))
	appendResponseHeader(out, s.cid, cpl.Status, cpl.Credit, s.dataLen)
	if !s.cond.cpl.push(s) {
		panic("fabric: completion ring overflow")
	}
	s.conn.wWake.wake()
}
