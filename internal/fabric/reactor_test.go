package fabric

import (
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"gimbal/internal/nvme"
	"gimbal/internal/obs"
	"gimbal/internal/sim"
	"gimbal/internal/ssd"
)

// startReactors spins up the sharded datapath over NULL devices (zero
// service time, synchronous completion) — the configuration the live
// datapath benchmarks use, where transport cost dominates.
func startReactors(t testing.TB, scheme Scheme, ssds, reactors int) (*TCPReactors, *sim.RealShards) {
	t.Helper()
	shards := sim.NewRealShards(reactors)
	devs := make([]ssd.Device, ssds)
	for i := range devs {
		devs[i] = ssd.NewNull(shards.Shard(i%shards.N()), nullCapacity, 0)
	}
	tgt := NewReactorTarget(shards, devs, DefaultTargetConfig(scheme))
	srv, err := ServeTCPReactors(shards, tgt, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, shards
}

// startReactorsSSD is the variant over real simulated SSDs, for tests
// that need the cost model / credit machinery behind the reactors.
func startReactorsSSD(t *testing.T, scheme Scheme, ssds, reactors int) *TCPReactors {
	t.Helper()
	shards := sim.NewRealShards(reactors)
	devs := make([]ssd.Device, ssds)
	for i := range devs {
		p := ssd.DCT983()
		p.UsableBytes = 256 << 20
		dev := ssd.New(shards.Shard(i%shards.N()), p)
		dev.Precondition(ssd.Clean, sim.NewRNG(uint64(i+1)))
		devs[i] = dev
	}
	tgt := NewReactorTarget(shards, devs, DefaultTargetConfig(scheme))
	srv, err := ServeTCPReactors(shards, tgt, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func TestReactorRoundTrip(t *testing.T) {
	srv, _ := startReactors(t, SchemeVanilla, 4, 2)
	if srv.Reactors() != 2 {
		t.Fatalf("reactors = %d, want 2", srv.Reactors())
	}
	c, err := DialTCP(srv.Addr(), SchemeVanilla)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	data := make([]byte, 8192)
	for i := range data {
		data[i] = byte(i)
	}
	// Touch every namespace so both reactors carry traffic.
	for nsid := uint8(0); nsid < 4; nsid++ {
		rsp, err := c.DoIO(nvme.OpWrite, nsid, 4096, len(data), data)
		if err != nil {
			t.Fatal(err)
		}
		if rsp.Status != nvme.StatusOK {
			t.Fatalf("ns %d write status %v", nsid, rsp.Status)
		}
		rsp, err = c.DoIO(nvme.OpRead, nsid, 4096, 8192, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rsp.Status != nvme.StatusOK {
			t.Fatalf("ns %d read status %v", nsid, rsp.Status)
		}
		if len(rsp.Data) != 8192 {
			t.Fatalf("ns %d read returned %d bytes, want 8192", nsid, len(rsp.Data))
		}
	}
	for _, st := range srv.ReactorStats() {
		if st.RxCapsules == 0 || st.TxCapsules == 0 {
			t.Fatalf("reactor %d saw no traffic: %+v", st.Reactor, st)
		}
		if len(st.SSDs) != 2 {
			t.Fatalf("reactor %d owns %v, want 2 SSDs", st.Reactor, st.SSDs)
		}
	}
}

const nullCapacity = 256 << 20 // startReactors' NULL devices

// reactorInvalidCommands are well-framed commands the reactor must refuse
// with an error reply (TestReactorInvalidCommands); FuzzDecodeCommand seeds
// its corpus with their encodings.
var reactorInvalidCommands = []struct {
	name string
	cmd  CommandCapsule
	want nvme.Status
}{
	{"bad NSID", CommandCapsule{Opcode: nvme.OpRead, NSID: 9, Length: 4096}, nvme.StatusInvalidOp},
	{"bad priority", CommandCapsule{Opcode: nvme.OpRead, Priority: nvme.NumPriorities, Length: 4096}, nvme.StatusInvalidOp},
	{"bad opcode", CommandCapsule{Opcode: 0x7f, Length: 4096}, nvme.StatusInvalidOp},
	{"LBA past capacity", CommandCapsule{Opcode: nvme.OpRead, SLBA: nullCapacity / 4096, Length: 4096}, nvme.StatusInvalidLBA},
	{"range straddles capacity", CommandCapsule{Opcode: nvme.OpWrite, SLBA: nullCapacity/4096 - 1, Length: 8192}, nvme.StatusInvalidLBA},
	// 2^52+1 blocks is byte offset 2^64+4096, which wrapped to LBA 1.
	{"SLBA overflow", CommandCapsule{Opcode: nvme.OpRead, SLBA: 1<<52 + 1, Length: 4096}, nvme.StatusInvalidLBA},
	{"SLBA + length overflow", CommandCapsule{Opcode: nvme.OpWrite, SLBA: maxSLBA + 1, Length: 1<<32 - 4096}, nvme.StatusInvalidLBA},
	{"zero length", CommandCapsule{Opcode: nvme.OpRead, Length: 0}, nvme.StatusInvalidLBA},
	{"unaligned length", CommandCapsule{Opcode: nvme.OpRead, Length: 100}, nvme.StatusInvalidLBA},
	// In range for the device, but the response could not be framed.
	{"oversize read", CommandCapsule{Opcode: nvme.OpRead, Length: 128 << 20}, nvme.StatusInvalidLBA},
	{"largest unframeable read", CommandCapsule{Opcode: nvme.OpRead, Length: maxFrame}, nvme.StatusInvalidLBA},
}

// TestReactorInvalidCommands: every malformed command a client can frame
// gets an error status at the submit point, allocates nothing the size of
// its claims, and leaves the connection serving.
func TestReactorInvalidCommands(t *testing.T) {
	srv, _ := startReactors(t, SchemeVanilla, 2, 2)
	c, err := DialTCP(srv.Addr(), SchemeVanilla)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, tc := range reactorInvalidCommands {
		cmd := tc.cmd
		rsp, err := c.Do(&cmd)
		if err != nil {
			t.Fatalf("%s: connection failed: %v", tc.name, err)
		}
		if rsp.Status != tc.want {
			t.Errorf("%s: status %#x, want %#x", tc.name, uint16(rsp.Status), uint16(tc.want))
		}
		if len(rsp.Data) != 0 {
			t.Errorf("%s: error reply carries %d data bytes", tc.name, len(rsp.Data))
		}
		// The connection must stay usable after the error reply.
		rsp, err = c.DoIO(nvme.OpRead, 0, 0, 4096, nil)
		if err != nil {
			t.Fatalf("%s: follow-up read: %v", tc.name, err)
		}
		if rsp.Status != nvme.StatusOK || len(rsp.Data) != 4096 {
			t.Fatalf("%s: follow-up read status %v, %d bytes", tc.name, rsp.Status, len(rsp.Data))
		}
	}
	// The largest read that does fit a frame is still served.
	rsp, err := c.Do(&CommandCapsule{Opcode: nvme.OpRead, Length: 4<<20 - 4096})
	if err != nil {
		t.Fatal(err)
	}
	if rsp.Status != nvme.StatusOK || len(rsp.Data) != 4<<20-4096 {
		t.Fatalf("largest framed read: status %v, %d bytes", rsp.Status, len(rsp.Data))
	}
	if n := srv.Inflight(); n != 0 {
		t.Fatalf("inflight = %d after the table", n)
	}
}

func TestReactorConcurrentClients(t *testing.T) {
	srv, _ := startReactors(t, SchemeVanilla, 4, 4)
	const clients = 4
	const opsEach = 200
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := DialTCP(srv.Addr(), SchemeVanilla)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			nsid := uint8(id % 4)
			for j := 0; j < opsEach; j++ {
				off := int64(j) * 4096 % (128 << 20)
				rsp, err := c.DoIO(nvme.OpRead, nsid, off, 4096, nil)
				if err != nil {
					errs <- err
					return
				}
				if rsp.Status != nvme.StatusOK {
					errs <- &netError{rsp.Status}
					return
				}
			}
		}(i)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if n := srv.Inflight(); n != 0 {
		t.Fatalf("inflight = %d after all clients done", n)
	}
}

func TestReactorGimbalCreditPiggyback(t *testing.T) {
	srv := startReactorsSSD(t, SchemeGimbal, 2, 2)
	c, err := DialTCP(srv.Addr(), SchemeGimbal)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var lastCredit uint32
	for j := 0; j < 200; j++ {
		rsp, err := c.DoIO(nvme.OpRead, uint8(j%2), int64(j)*4096, 4096, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rsp.Credit > 0 {
			lastCredit = rsp.Credit
		}
	}
	if lastCredit == 0 {
		t.Fatal("no credit ever piggybacked on completions")
	}
}

func TestReactorShutdownDrains(t *testing.T) {
	shards := sim.NewRealShards(2)
	devs := make([]ssd.Device, 2)
	for i := range devs {
		devs[i] = ssd.NewNull(shards.Shard(i), 256<<20, 0)
	}
	tgt := NewReactorTarget(shards, devs, DefaultTargetConfig(SchemeVanilla))
	srv, err := ServeTCPReactors(shards, tgt, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialTCP(srv.Addr(), SchemeVanilla)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 50; j++ {
		if _, err := c.DoIO(nvme.OpRead, uint8(j%2), int64(j)*4096, 4096, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Shutdown(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n := srv.Inflight(); n != 0 {
		t.Fatalf("inflight = %d after shutdown", n)
	}
	c.Close()
}

// TestReactorPeerResetReclaims: clients that vanish mid-burst (RST, no
// drain) leave nothing behind — every pipeline's tenant list empties, the
// in-flight count and the session gauge return to zero, and once the
// server is closed no goroutine of it survives.
func TestReactorPeerResetReclaims(t *testing.T) {
	baseline := runtime.NumGoroutine()

	const ssds = 2
	srv := startReactorsSSD(t, SchemeGimbal, ssds, 2)
	shards, tgt := srv.shards, srv.target
	reg := obs.NewRegistry()
	srv.AttachObs(obs.NewHub(reg), nil)

	// Each client pipelines a burst of 128KB reads across both namespaces
	// — far more than the switch admits at once, so most of it is queued
	// in the schedulers — waits for the first reply (proof the burst is
	// inside the target; an RST could otherwise discard it unread), then
	// resets the connection with the rest outstanding.
	const clients, burst = 4, 256
	for i := 0; i < clients; i++ {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		var frames []byte
		for j := 0; j < burst; j++ {
			frames = binary.BigEndian.AppendUint32(frames, cmdHeaderLen)
			frames = AppendCommand(frames, &CommandCapsule{
				Opcode: nvme.OpRead, CID: uint16(j), NSID: uint8(j % ssds),
				SLBA: uint64(j) * 32, Length: 128 << 10,
			})
		}
		if _, err := conn.Write(frames); err != nil {
			t.Fatal(err)
		}
		if err := newCapsuleReader(conn, rxBufSize).readResponse(&ResponseCapsule{}); err != nil {
			t.Fatal(err)
		}
		conn.(*net.TCPConn).SetLinger(0) // close sends RST
		conn.Close()
	}

	registered := func() int {
		shards.Lock()
		defer shards.Unlock()
		n := 0
		for i := 0; i < ssds; i++ {
			for _, rec := range tgt.Pipeline(i).order {
				if rec.live {
					n++
				}
			}
		}
		return n
	}
	settled := func() bool {
		return srv.Inflight() == 0 && registered() == 0 &&
			obs.SumMetric(reg.Snapshot(), "fabric_open_sessions") == 0
	}
	deadline := time.Now().Add(10 * time.Second)
	for !settled() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if !settled() {
		t.Fatalf("after peer reset: inflight=%d registered tenants=%d open sessions=%v",
			srv.Inflight(), registered(), obs.SumMetric(reg.Snapshot(), "fabric_open_sessions"))
	}

	srv.Close()
	expectGoroutines(t, baseline)
}

// expectGoroutines fails the test unless the goroutine count falls back to
// baseline (taken before the server started) within a few seconds.
func expectGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > baseline {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines after the server stopped, %d before it started:\n%s",
			n, baseline, buf[:runtime.Stack(buf, true)])
	}
}

// TestReactorShardedObs wires the full sharded observability stack the
// daemon uses — per-reactor registry shards with per-shard GatherLocks,
// an obs.Group over them, a shared SLO engine — and checks that tenant
// traffic lands in the right shard and the SLO report attributes per
// tenant across shards.
func TestReactorShardedObs(t *testing.T) {
	shards := sim.NewRealShards(2)
	devs := make([]ssd.Device, 2)
	for i := range devs {
		devs[i] = ssd.NewNull(shards.Shard(i), 256<<20, 0)
	}
	tgt := NewReactorTarget(shards, devs, DefaultTargetConfig(SchemeVanilla))
	srv, err := ServeTCPReactors(shards, tgt, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	reg := obs.NewRegistry()
	hub := obs.NewHub(reg)
	hub.SLO = obs.NewSLOEngine(obs.SLO{LatencyTargetNs: int64(time.Second), LatencyGoal: 0.9})
	shardRegs := make([]*obs.Registry, 2)
	for j := range shardRegs {
		shardRegs[j] = obs.NewRegistry()
		shardRegs[j].GatherLock = shards.Shard(j)
	}
	pregs := make([]*obs.Registry, tgt.SSDs())
	for i := range pregs {
		pregs[i] = shardRegs[i%len(shardRegs)]
	}
	shards.Lock()
	tgt.AttachObsSharded(hub, pregs)
	shards.Unlock()
	srv.AttachObs(hub, shardRegs)

	c, err := DialTCP(srv.Addr(), SchemeVanilla)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for j := 0; j < 100; j++ {
		rsp, err := c.DoIO(nvme.OpRead, uint8(j%2), int64(j)*4096, 4096, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rsp.Status != nvme.StatusOK {
			t.Fatalf("read status %v", rsp.Status)
		}
	}

	// Each shard registry carries its own pipeline's tenant counters.
	for j, sr := range shardRegs {
		snap := sr.Snapshot()
		found := false
		for k, v := range snap {
			if len(k) > len("tenant_completed_ops_total") && k[:len("tenant_completed_ops_total")] == "tenant_completed_ops_total" && v > 0 {
				found = true
			}
		}
		if !found {
			t.Fatalf("shard %d registry has no tenant completions: %v", j, snap)
		}
	}
	// The joined view sums to the full traffic.
	group := obs.NewGroup(append([]*obs.Registry{reg}, shardRegs...)...)
	total := 0.0
	for k, v := range group.Snapshot() {
		if len(k) > len("tenant_completed_ops_total") && k[:len("tenant_completed_ops_total")] == "tenant_completed_ops_total" {
			total += v
		}
	}
	if total != 100 {
		t.Fatalf("joined tenant_completed_ops_total = %v, want 100", total)
	}
	// The shared SLO engine saw both shards' tenants.
	rep := hub.SLO.Report(shards.Now())
	if len(rep.Tenants) != 2 {
		t.Fatalf("SLO report has %d tenants, want 2 (one per namespace)", len(rep.Tenants))
	}
	var good int64
	for _, tr := range rep.Tenants {
		if tr.Good == 0 {
			t.Fatalf("tenant %s reported no good IOs", tr.Tenant)
		}
		good += tr.Good
	}
	if good != 100 {
		t.Fatalf("SLO good total = %d, want 100", good)
	}
}

// TestTCPHotPathAllocFree pins the 0 allocs/IO property of the reactor
// wall-clock path: a raw pipelined client replays a prebuilt 4 KiB read
// frame and the whole process — reader, reactor, pipeline, writer —
// must average well under one allocation per IO after warmup.
func TestTCPHotPathAllocFree(t *testing.T) {
	srv, _ := startReactors(t, SchemeVanilla, 1, 1)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	cmd := AppendCommand(
		binary.BigEndian.AppendUint32(nil, cmdHeaderLen),
		&CommandCapsule{Opcode: nvme.OpRead, CID: 1, NSID: 0, SLBA: 0, Length: 4096},
	)
	rspLen := 4 + rspHeaderLen + 4096
	rsp := make([]byte, rspLen)

	doIO := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := conn.Write(cmd); err != nil {
				t.Fatal(err)
			}
			if _, err := io.ReadFull(conn, rsp); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Warmup creates the connection's slots (two at QD1; a slot's response
	// header is part of it and a read's payload is sent from the zero slab,
	// so nothing grows afterwards); the rest of it settles the runtime
	// (netpoll, goroutine stacks, the tenant bootstrap).
	doIO(1000)

	const iters = 5000
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	doIO(iters)
	runtime.ReadMemStats(&m1)
	allocs := float64(m1.Mallocs-m0.Mallocs) / iters
	if allocs >= 1.0 {
		t.Fatalf("hot path allocates %.3f objects/IO, want < 1.0", allocs)
	}
	t.Logf("hot path: %.4f allocs/IO over %d IOs", allocs, iters)
}
