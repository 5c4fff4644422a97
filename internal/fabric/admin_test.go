package fabric

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gimbal/internal/nvme"
	"gimbal/internal/obs"
	"gimbal/internal/sim"
	"gimbal/internal/ssd"
)

// newObservedTarget builds a live Gimbal target the way cmd/gimbald does —
// BuildStack (so the pipeline's device is a fault wrapper over the NAND
// model), one shard, and the full telemetry stack attached: registry, a
// full-capture tracer, an SLO engine, and the shared event log.
func newObservedTarget(t *testing.T) (*sim.RealShards, *Target, *obs.Hub) {
	t.Helper()
	shards := sim.NewRealShards(1)
	p := ssd.DCT983()
	p.UsableBytes = 256 << 20
	st, err := BuildStack([]sim.Scheduler{shards.Shard(0)}, sim.NewRNG(1), StackConfig{
		Params: p, Cond: ssd.Clean, Target: DefaultTargetConfig(SchemeGimbal),
	})
	if err != nil {
		t.Fatal(err)
	}
	tgt := st.Target

	hub := obs.NewHub(obs.NewRegistry())
	hub.Reg.GatherLock = shards.Shard(0)
	hub.Tracer = obs.NewTracer(obs.TracerConfig{Capacity: 1024, Mode: obs.TraceFull})
	hub.Events = obs.NewEventLog(64)
	hub.SLO = obs.NewSLOEngine(obs.SLO{LatencyTargetNs: int64(time.Second), LatencyGoal: 0.999})
	hub.SLO.SetEventLog(hub.Events)
	shards.Lock()
	tgt.AttachObs(hub)
	shards.Unlock()
	return shards, tgt, hub
}

// startObservedTCP serves a newObservedTarget on one reactor.
func startObservedTCP(t *testing.T) (*TCPReactors, *obs.Hub) {
	t.Helper()
	shards, tgt, hub := newObservedTarget(t)
	srv, err := ServeTCPReactors(shards, tgt, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.AttachObs(hub, nil)
	t.Cleanup(func() { srv.Close() })
	return srv, hub
}

func TestAdminEndpointLiveTarget(t *testing.T) {
	srv, hub := startObservedTCP(t)
	c, err := DialTCP(srv.Addr(), SchemeGimbal)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	payload := make([]byte, 8192)
	for i := 0; i < 64; i++ {
		op, data := nvme.Opcode(nvme.OpRead), []byte(nil)
		if i%4 == 0 {
			op, data = nvme.OpWrite, payload
		}
		rsp, err := c.DoIO(op, 0, int64(i)*8192, 8192, data)
		if err != nil {
			t.Fatal(err)
		}
		if rsp.Status != nvme.StatusOK {
			t.Fatalf("io %d status %v", i, rsp.Status)
		}
	}

	mux := AdminMuxMetrics(srv.shards, srv.target, hub, hub.Reg)

	// /metrics: Prometheus text format with the pipeline instruments — the
	// NAND families included, though the pipeline's device is the fault
	// wrapper around the model.
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE gimbal_pacing_stalls_total counter",
		`gimbal_submits_total{ssd="0"}`,
		`fabric_reactor_rx_capsules{reactor="0"} 64`,
		"fabric_open_sessions 1",
		`tenant_completed_ops_total{ssd="0",tenant=`,
		"ssd_write_amplification",
		`ssd_gc_invocations_total{ssd="0"}`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	// /stats: JSON snapshot with per-tenant traffic and the virtual view.
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
	var snap TargetStats
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("bad /stats JSON: %v\n%s", err, rec.Body.String())
	}
	if snap.Scheme != "gimbal" || len(snap.SSDs) != 1 {
		t.Fatalf("snapshot shape: %+v", snap)
	}
	s0 := snap.SSDs[0]
	if s0.WriteCost < 1 || s0.Submits != 64 || s0.Completions != 64 {
		t.Fatalf("ssd block: %+v", s0)
	}
	if len(s0.Tenants) != 1 || s0.Tenants[0].Ops != 64 || s0.Tenants[0].Bytes != 64*8192 {
		t.Fatalf("tenant block: %+v", s0.Tenants)
	}
	if s0.Tenants[0].Credit == 0 {
		t.Fatalf("tenant credit not exported: %+v", s0.Tenants[0])
	}
	if s0.Device == nil || s0.Device.ReadBytes == 0 {
		t.Fatalf("device block: %+v", s0.Device)
	}

	// /trace: one JSONL line per traced IO with the lifecycle spans.
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/trace", nil))
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) != 64 {
		t.Fatalf("/trace lines = %d, want 64", len(lines))
	}
	var tr struct {
		Op       string `json:"op"`
		DeviceNs int64  `json:"device_ns"`
		QueueNs  int64  `json:"queue_ns"`
		PacingNs int64  `json:"pacing_ns"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.DeviceNs <= 0 || tr.QueueNs < 0 || tr.PacingNs < 0 {
		t.Fatalf("trace spans: %+v", tr)
	}

	// /trace filters: n= caps the output (newest win), tenant= selects by
	// name, an unknown tenant matches nothing, a bad phase is rejected.
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/trace?n=8", nil))
	if got := strings.Split(strings.TrimSpace(rec.Body.String()), "\n"); len(got) != 8 {
		t.Fatalf("/trace?n=8 lines = %d, want 8", len(got))
	}
	tenantName := s0.Tenants[0].Tenant
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/trace?tenant="+tenantName, nil))
	if got := strings.Split(strings.TrimSpace(rec.Body.String()), "\n"); len(got) != 64 {
		t.Fatalf("/trace?tenant=%s lines = %d, want 64", tenantName, len(got))
	}
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/trace?tenant=nobody", nil))
	if body := strings.TrimSpace(rec.Body.String()); body != "" {
		t.Fatalf("/trace?tenant=nobody returned %q", body)
	}
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/trace?phase=warp", nil))
	if rec.Code != 400 {
		t.Fatalf("/trace?phase=warp code = %d, want 400", rec.Code)
	}

	// /slo: the engine saw every completed IO for the tenant.
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/slo", nil))
	var slo obs.SLOReport
	if err := json.Unmarshal(rec.Body.Bytes(), &slo); err != nil {
		t.Fatalf("bad /slo JSON: %v\n%s", err, rec.Body.String())
	}
	if len(slo.Tenants) != 1 || slo.Tenants[0].Tenant != tenantName {
		t.Fatalf("/slo tenants: %+v", slo.Tenants)
	}
	if got := slo.Tenants[0].Good + slo.Tenants[0].Bad; got != 64 {
		t.Fatalf("/slo observed %d IOs, want 64", got)
	}
}

// TestAdminEndpointFairnessAfterDisconnect: /stats judges fairness among the
// tenants still connected. A departed tenant keeps its row and totals, but
// its since-registration mean — three times the survivor's traffic here —
// must stop counting toward the equal share (it used to: the survivor read
// futil ≈ 0.4 and the node jain ≈ 0.7).
func TestAdminEndpointFairnessAfterDisconnect(t *testing.T) {
	srv, hub := startObservedTCP(t)
	read := func(c *TCPClient, n int) {
		for i := 0; i < n; i++ {
			if rsp, err := c.DoIO(nvme.OpRead, 0, int64(i)*4096, 4096, nil); err != nil || rsp.Status != nvme.StatusOK {
				t.Fatalf("read %d: %v %+v", i, err, rsp)
			}
		}
	}
	stay, err := DialTCP(srv.Addr(), SchemeGimbal)
	if err != nil {
		t.Fatal(err)
	}
	defer stay.Close()
	leave, err := DialTCP(srv.Addr(), SchemeGimbal)
	if err != nil {
		t.Fatal(err)
	}
	read(stay, 32)
	read(leave, 96)
	leave.Close()

	live := func() (n int) {
		srv.shards.Lock()
		defer srv.shards.Unlock()
		for _, rec := range srv.target.Pipeline(0).order {
			if rec.live {
				n++
			}
		}
		return n
	}
	for deadline := time.Now().Add(10 * time.Second); live() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d tenants live 10 s after one of two connections closed", live())
		}
	}

	mux := AdminMuxMetrics(srv.shards, srv.target, hub, hub.Reg)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
	var snap TargetStats
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("bad /stats JSON: %v\n%s", err, rec.Body.String())
	}
	rows := snap.SSDs[0].Tenants
	if len(rows) != 2 || rows[0].Ops != 32 || rows[1].Ops != 96 {
		t.Fatalf("tenant rows (the departed one keeps its row and totals): %+v", rows)
	}
	if math.Abs(rows[0].FUtil-1) > 1e-9 || rows[1].FUtil != 0 || math.Abs(snap.Jain-1) > 1e-9 {
		t.Fatalf("survivor futil = %v, departed futil = %v, jain = %v; want 1, 0, 1", rows[0].FUtil, rows[1].FUtil, snap.Jain)
	}
}

// TestAdminEndpointScrapeUnderLoad: the counters behind /metrics and /stats
// are plain fields of each pipeline, safe to read only under that
// pipeline's shard lock — so this test makes the lock's absence a race
// report. A QD32 client drives a two-reactor Gimbal target (NAND,
// per-reactor registries gathered under their shard) while one goroutine
// scrapes every endpoint in a loop and another opens, uses and closes
// connections, so tenant records are registered and disconnected
// mid-scrape. Afterwards the registries account for every completion the
// clients saw.
func TestAdminEndpointScrapeUnderLoad(t *testing.T) {
	shards := sim.NewRealShards(2)
	t.Cleanup(shards.Stop)
	p := ssd.DCT983()
	p.UsableBytes = 128 << 20
	st, err := BuildStack([]sim.Scheduler{shards.Shard(0), shards.Shard(1)}, sim.NewRNG(1), StackConfig{
		Params: p, Cond: ssd.Clean, Target: DefaultTargetConfig(SchemeGimbal),
	})
	if err != nil {
		t.Fatal(err)
	}
	hub := obs.NewHub(obs.NewRegistry())
	hub.Tracer = obs.NewTracer(obs.DefaultTracerConfig())
	shardRegs := []*obs.Registry{obs.NewRegistry(), obs.NewRegistry()}
	for j, reg := range shardRegs {
		reg.GatherLock = shards.Shard(j)
	}
	shards.Lock()
	st.Target.AttachObsSharded(hub, shardRegs)
	shards.Unlock()
	srv, err := ServeTCPReactors(shards, st.Target, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	srv.AttachObs(hub, shardRegs)
	group := obs.NewGroup(hub.Reg, shardRegs[0], shardRegs[1])
	mux := AdminMuxMetrics(shards, st.Target, hub, group)

	var completed atomic.Int64 // OK responses seen by any client
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // the scraper
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, path := range []string{"/metrics", "/stats"} {
				rec := httptest.NewRecorder()
				mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
				if rec.Code != 200 || rec.Body.Len() == 0 {
					t.Errorf("GET %s: code %d, %d bytes", path, rec.Code, rec.Body.Len())
					return
				}
			}
			srv.ReactorStats() // what gimbald serves as /reactors
		}
	}()
	go func() { // connection churn
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c, err := DialTCP(srv.Addr(), SchemeGimbal)
			if err != nil {
				t.Errorf("churn dial: %v", err)
				return
			}
			for j := 0; j < 8; j++ {
				if rsp, err := c.DoIO(nvme.OpRead, uint8(j%2), int64(i*8+j)*4096, 4096, nil); err != nil {
					t.Errorf("churn read: %v", err)
				} else if rsp.Status == nvme.StatusOK {
					completed.Add(1)
				}
			}
			c.Close()
		}
	}()

	c, err := DialTCP(srv.Addr(), SchemeGimbal)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const qd, total = 32, 6000
	payload := make([]byte, 8192)
	inflight := make([]<-chan callResult, 0, qd)
	wait := func(ch <-chan callResult) {
		if res := <-ch; res.err != nil {
			t.Fatalf("load client: %v", res.err)
		} else if res.rsp.Status == nvme.StatusOK {
			completed.Add(1)
		}
	}
	for i := 0; i < total; i++ {
		if len(inflight) == qd {
			wait(inflight[0])
			inflight = inflight[1:]
		}
		cmd := &CommandCapsule{Opcode: nvme.OpRead, NSID: uint8(i % 2), SLBA: uint64(i % 4096), Length: 4096}
		if i%4 == 0 {
			cmd.Opcode, cmd.Length, cmd.Data = nvme.OpWrite, uint32(len(payload)), payload
		}
		inflight = append(inflight, c.Go(cmd))
	}
	for _, ch := range inflight {
		wait(ch)
	}
	close(stop)
	wg.Wait()

	// A response is sent after its completion is booked, so with every call
	// answered the registries hold exactly what the clients counted.
	served := int64(obs.SumMetric(group.Snapshot(), "tenant_completed_ops_total"))
	if want := completed.Load(); served != want || want < total {
		t.Fatalf("tenant_completed_ops_total = %d across the registries, clients saw %d OK completions (>= %d expected)", served, want, total)
	}
}

// TestShutdownDrainsInflight: a burst and a Shutdown racing it, on a fresh
// server over one NAND device each round. Wherever the Shutdown finds the
// burst — in the socket, in the reader's buffer, in a command ring, at the
// device — nothing may complete after it returns, every call ends, and no
// session or goroutine stays behind. (Counting only submitted commands as
// in flight let one round in fifty return with ten still at the device.)
func TestShutdownDrainsInflight(t *testing.T) {
	// One target for all rounds: what a round may leave behind on the shard
	// is then a difference against the housekeeping timers that were there
	// before it. (TestShutdownThenStopLeavesNothing builds one per round.)
	shards, tgt, _ := newObservedTarget(t)
	t.Cleanup(shards.Stop)
	shard := shards.Shard(0)
	shard.Lock()
	housekeeping := shard.Pending()
	shard.Unlock()
	baseline := runtime.NumGoroutine()
	rounds := 200
	if testing.Short() {
		rounds = 50
	}
	for round := 0; round < rounds; round++ {
		srv, err := ServeTCPReactors(shards, tgt, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		c, err := DialTCP(srv.Addr(), SchemeGimbal)
		if err != nil {
			t.Fatal(err)
		}
		var chans []<-chan callResult
		for i := 0; i < 32; i++ {
			chans = append(chans, c.Go(&CommandCapsule{
				Opcode: nvme.OpRead, NSID: 0, SLBA: uint64(i), Length: 4096,
			}))
		}
		// Sweep the instant of the Shutdown across the burst's way in.
		time.Sleep(time.Duration(round%20) * 10 * time.Microsecond)
		if err := srv.Shutdown(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		if n, s := srv.Inflight(), srv.sessions.Load(); n != 0 || s != 0 {
			t.Fatalf("round %d: after Shutdown inflight = %d, open sessions = %d", round, n, s)
		}
		// The rounds are reads, so the device owes no flush or GC: no device
		// completion, pacing or deadline timer may outlive the drain.
		shard.Lock()
		pending := shard.Pending()
		shard.Unlock()
		if pending != housekeeping {
			t.Fatalf("round %d: %d events pending on the shard after Shutdown, %d before the round", round, pending, housekeeping)
		}
		// Every submitted command either completed or failed cleanly on close;
		// none may hang.
		for i, ch := range chans {
			select {
			case <-ch:
			case <-time.After(5 * time.Second):
				t.Fatalf("round %d: command %d hung after shutdown", round, i)
			}
		}
		c.Close()
		expectGoroutines(t, baseline)
		if t.Failed() {
			t.Fatalf("round %d", round)
		}
	}
}

// TestShutdownThenStopLeavesNothing: a target and its shard set can be
// retired. Each round builds both, serves a burst, shuts the server down and
// stops the shards; afterwards no goroutine is left, and no bell rings for
// the cost ticks and recovery timers the abandoned switches still hold.
func TestShutdownThenStopLeavesNothing(t *testing.T) {
	baseline := runtime.NumGoroutine()
	var stopped []*sim.RealShards
	for round := 0; round < 20; round++ {
		shards, tgt, _ := newObservedTarget(t)
		srv, err := ServeTCPReactors(shards, tgt, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		c, err := DialTCP(srv.Addr(), SchemeGimbal)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 32; i++ {
			if rsp, err := c.Do(&CommandCapsule{Opcode: nvme.OpRead, SLBA: uint64(i), Length: 4096}); err != nil || rsp.Status != nvme.StatusOK {
				t.Fatalf("round %d read %d: %v %+v", round, i, err, rsp)
			}
		}
		c.Close()
		if err := srv.Shutdown(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		shards.Lock()
		pending := shards.Shard(0).Pending()
		shards.Unlock()
		if pending == 0 {
			t.Fatalf("round %d: no event pending before Stop: the switch's housekeeping timers are what it has to drop", round)
		}
		shards.Stop()
		stopped = append(stopped, shards)
	}
	expectGoroutines(t, baseline)
	reads := func() (n int64) {
		for _, shards := range stopped {
			shards.Lock()
			n += shards.Shard(0).ClockReads()
			if p := shards.Shard(0).Pending(); p != 0 {
				t.Errorf("%d events pending on a stopped shard", p)
			}
			shards.Unlock()
		}
		return n
	}
	// Every entry into a shard samples its clock, a bell ring included: over
	// ten cost-tick periods the only entries are this test's own.
	before := reads()
	time.Sleep(100 * time.Millisecond)
	if extra := reads() - before - int64(len(stopped)); extra != 0 {
		t.Errorf("stopped shards were entered %d times in 100 ms by something other than this test", extra)
	}
	expectGoroutines(t, baseline)
}
