package fabric

import (
	"encoding/binary"
	"net"
	"runtime"
	"testing"
	"time"

	"gimbal/internal/nvme"
	"gimbal/internal/obs"
	"gimbal/internal/sim"
	"gimbal/internal/ssd"
)

// pipelinedReads runs n 4 KB reads on a raw connection with up to qd
// outstanding, one replacement per response (qd = n sends everything before
// reading anything), and checks that every CID comes back OK exactly once.
func pipelinedReads(t *testing.T, conn net.Conn, qd, n int) {
	t.Helper()
	fr := newCapsuleReader(conn, rxBufSize)
	var wire []byte
	var rsp ResponseCapsule
	done := make([]bool, n)
	for sent, got := 0, 0; got < n; {
		wire = wire[:0]
		for ; sent < n && sent-got < qd; sent++ {
			wire = binary.BigEndian.AppendUint32(wire, cmdHeaderLen)
			wire = AppendCommand(wire, &CommandCapsule{Opcode: nvme.OpRead, CID: uint16(sent), SLBA: uint64(sent), Length: 4096})
		}
		if len(wire) > 0 {
			if _, err := conn.Write(wire); err != nil {
				t.Fatal(err)
			}
		}
		if err := fr.readResponse(&rsp); err != nil {
			t.Fatalf("after %d of %d responses: %v", got, n, err)
		}
		if int(rsp.CID) >= n || done[rsp.CID] || rsp.Status != nvme.StatusOK || len(rsp.Data) != 4096 {
			t.Fatalf("response %d: CID %d (seen before: %v), status %v, %d bytes",
				got, rsp.CID, int(rsp.CID) < n && done[rsp.CID], rsp.Status, len(rsp.Data))
		}
		done[rsp.CID] = true
		got++
	}
}

func dialRaw(t *testing.T, srv *TCPReactors) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// TestReactorSlotCapBackpressure: a client that pipelines more than
// connSlots commands before reading anything is held at the cap — the
// reader parks, nothing beyond connSlots enters the target, every command
// still completes — and a graceful shutdown afterwards leaves nothing
// behind.
func TestReactorSlotCapBackpressure(t *testing.T) {
	baseline := runtime.NumGoroutine()
	shards := sim.NewRealShards(1)
	// 20 ms of service time: the whole pool is in flight long before the
	// first completion returns a slot.
	dev := ssd.NewNull(shards.Shard(0), nullCapacity, int64(20*time.Millisecond))
	srv, err := ServeTCPReactors(shards, NewReactorTarget(shards, []ssd.Device{dev}, DefaultTargetConfig(SchemeVanilla)), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	reg := obs.NewRegistry()
	srv.AttachObs(obs.NewHub(reg), nil)

	var peak int64
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := srv.Inflight(); n > peak {
				peak = n
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()
	conn := dialRaw(t, srv)
	const n = connSlots + 200
	pipelinedReads(t, conn, n, n)
	close(stop)
	<-stopped
	if peak > connSlots {
		t.Errorf("in-flight commands peaked at %d, over the cap %d", peak, connSlots)
	}
	// That the cap was reached, and held the reader, is the server's own
	// account; the sampler above may have slept through the peak.
	st := srv.ReactorStats()[0]
	if st.Slots != connSlots || st.SlotStalls == 0 {
		t.Errorf("%d slots created and %d reader stalls, want %d and at least one", st.Slots, st.SlotStalls, connSlots)
	}
	snap := reg.Snapshot()
	if got := obs.SumMetric(snap, "fabric_reactor_slots"); got != connSlots {
		t.Errorf("fabric_reactor_slots = %v, want %d", got, connSlots)
	}
	if got := obs.SumMetric(snap, "fabric_reactor_slot_stalls"); got != float64(st.SlotStalls) {
		t.Errorf("fabric_reactor_slot_stalls = %v, /reactors says %d", got, st.SlotStalls)
	}

	conn.Close()
	if err := srv.Shutdown(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n, s := srv.Inflight(), obs.SumMetric(reg.Snapshot(), "fabric_open_sessions"); n != 0 || s != 0 {
		t.Errorf("after Shutdown: inflight=%d open sessions=%v", n, s)
	}
	expectGoroutines(t, baseline)
}

// TestReactorSlotsSizedByDemand: a connection creates the slots its own
// queue depth needs — the depth itself, and as many again for responses
// the client has seen before the writer recycled their slots — not the
// connSlots it may.
func TestReactorSlotsSizedByDemand(t *testing.T) {
	for _, tc := range []struct{ qd, most int }{{32, 64}, {1, 2}} {
		srv, _ := startReactors(t, SchemeVanilla, 1, 1)
		pipelinedReads(t, dialRaw(t, srv), tc.qd, 10000)
		st := srv.ReactorStats()[0]
		if st.Slots < tc.qd || st.Slots > tc.most || st.SlotStalls != 0 {
			t.Errorf("QD%d: %d slots created and %d reader stalls, want %d..%d and none",
				tc.qd, st.Slots, st.SlotStalls, tc.qd, tc.most)
		}
		t.Logf("QD%d: %d slots", tc.qd, st.Slots)
	}
}

// TestReactorOneClockReadPerCommand: the shard clock is sampled per entry,
// not per use. A command crosses eight components that stamp or compare
// the time on the Gimbal pipeline and completes in its submitter's entry
// over a NULL device, so it costs one read; the slack is for timer
// callbacks (the rate pacer's, once its target rate has climbed past the
// offered load, are rare).
func TestReactorOneClockReadPerCommand(t *testing.T) {
	srv, _ := startReactors(t, SchemeGimbal, 1, 1)
	conn := dialRaw(t, srv)
	pipelinedReads(t, conn, 32, 20000) // the climb: the pacer stalls every few commands
	before := srv.ReactorStats()[0]
	pipelinedReads(t, conn, 32, 10000)
	after := srv.ReactorStats()[0]
	cmds := after.RxCapsules - before.RxCapsules
	perCmd := float64(after.ClockReads-before.ClockReads) / float64(cmds)
	if cmds != 10000 || perCmd < 1 || perCmd > 1.1 {
		t.Errorf("%.3f clock reads per command over %d commands, want 1..1.1 over 10000", perCmd, cmds)
	}
	t.Logf("%.4f clock reads per command", perCmd)
}

// heldDevice completes nothing until releaseAt: what a client has pipelined
// by then is in flight all at once, whatever the machine's speed.
type heldDevice struct {
	shard *sim.RealScheduler
	held  []*ssd.Request // under the shard lock
}

func (d *heldDevice) Capacity() int64 { return nullCapacity }

func (d *heldDevice) Submit(r *ssd.Request) {
	r.SubmitTime = d.shard.Now()
	d.held = append(d.held, r)
}

// await returns once n commands are in flight: all held.
func (d *heldDevice) await(t *testing.T, srv *TCPReactors, n int64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); srv.Inflight() < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d commands reached the device", srv.Inflight(), n)
		}
	}
}

// releaseAt completes what is held once n commands are in flight.
func (d *heldDevice) releaseAt(t *testing.T, srv *TCPReactors, n int64) {
	t.Helper()
	d.await(t, srv, n)
	d.shard.Lock()
	defer d.shard.Unlock()
	for _, r := range d.held {
		r.CompleteTime = d.shard.Now()
		r.Done(r)
	}
	d.held = nil
}

// TestReactorSlotShedsJumboBuffers: a slot that carried a frame-sized
// command does not keep a frame-sized buffer. Slots outlive commands by the
// life of the connection, and a peer may pipeline connSlots such commands.
// The response side has nothing to shed: a slot holds a header, and a
// read's payload leaves by reference however long it is.
func TestReactorSlotShedsJumboBuffers(t *testing.T) {
	shards := sim.NewRealShards(1)
	dev := &heldDevice{shard: shards.Shard(0)}
	srv, err := ServeTCPReactors(shards, NewReactorTarget(shards, []ssd.Device{dev}, DefaultTargetConfig(SchemeVanilla)), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn := dialRaw(t, srv)

	// Eight jumbo commands on the wire before any completes, so eight slots
	// carry them: four grow a payload buffer, four send a jumbo response.
	const jumbo, n = 1 << 20, 8
	payload := make([]byte, jumbo)
	go func() {
		var wire []byte
		for i := 0; i < n; i++ {
			cmd := CommandCapsule{Opcode: nvme.OpRead, CID: uint16(i), SLBA: uint64(i) * jumbo / 4096, Length: jumbo}
			if i%2 == 0 {
				cmd.Opcode, cmd.Data = nvme.OpWrite, payload
			}
			wire = appendCommandFrame(wire, &cmd)
		}
		conn.Write(wire) // a failure shows as missing responses below
	}()
	dev.releaseAt(t, srv, n)
	fr := newCapsuleReader(conn, rxBufSize)
	for i := 0; i < n; i++ {
		expectResponse(t, fr, i, i%2*jumbo) // the odd ones are the reads
	}
	srv.connMu.Lock()
	var rc *rconn
	for rc = range srv.conns {
	}
	srv.connMu.Unlock()
	// The shed slots still serve: 4 KB writes through each of them, once
	// the writer has put all eight back (the client can read a response
	// before its slot is home, and a reader finding the free ring short
	// creates a slot).
	for deadline := time.Now().Add(10 * time.Second); rc.free.len() < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d slots recycled", rc.free.len(), n)
		}
	}
	go func() {
		var wire []byte
		for i := 0; i < n; i++ {
			wire = appendCommandFrame(wire, &CommandCapsule{Opcode: nvme.OpWrite, CID: uint16(i), Length: 4096, Data: payload[:4096]})
		}
		conn.Write(wire)
	}()
	dev.releaseAt(t, srv, n)
	for i := 0; i < n; i++ {
		expectResponse(t, fr, i, 0)
	}

	conn.Close()
	srv.Close() // every transport goroutine has exited: the free ring is ours
	seen := 0
	for {
		s, ok := rc.free.pop()
		if !ok {
			break
		}
		seen++
		if cap(s.cmd.Data) > slotBufKeep {
			t.Errorf("recycled slot keeps a %d-byte payload buffer, bound %d", cap(s.cmd.Data), slotBufKeep)
		}
	}
	if made := int(rc.slots.Load()); seen != made || seen != n {
		t.Errorf("%d slots in the free ring of the %d created, want the pipelining depth %d", seen, made, n)
	}
}
