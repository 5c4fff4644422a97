package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gimbal/internal/fabric"
	"gimbal/internal/nvme"
	"gimbal/internal/obs"
)

// Client-side span kinds of the live plane: the four calls an IO's bytes
// pass through on the initiator. Everything else the client goroutine does
// (bookkeeping, latency recording) is its self time.
const (
	spanEncode = iota
	spanWrite
	spanRead
	spanDecode
	numLiveSpans
)

var liveSpanNames = [numLiveSpans]string{"client.encode", "client.write", "client.read", "client.decode"}

// liveSpans records one client goroutine's spans. They do not nest.
type liveSpans struct {
	epoch time.Time
	conn  int64
	ns    [numLiveSpans]int64
	n     [numLiveSpans]int64
	kind  int
	t0    int64
	raw   []rawSpan
}

func (s *liveSpans) begin(kind int) {
	s.kind = kind
	s.t0 = int64(time.Since(s.epoch))
}

func (s *liveSpans) end() {
	t := int64(time.Since(s.epoch))
	s.ns[s.kind] += t - s.t0
	s.n[s.kind]++
	if len(s.raw) < maxRawSpans/liveConns {
		s.raw = append(s.raw, rawSpan{ID: int64(len(s.raw)) + 1 + s.conn*maxRawSpans, Name: liveSpanNames[s.kind],
			StartNs: s.t0, EndNs: t, IO: s.conn})
	}
}

// openLoopResult is the outcome of P4 on one connection.
type openLoopResult struct {
	attempted, completed, failed int64
	lat, late                    *fineHist
	err                          error
}

// openLoop issues 4 KB reads on a Poisson schedule drawn from the client's
// seed at rate per second for dur, whatever the target's pace (the schedule
// never looks at completions). Latency runs from the time a command was
// due, so a stalled generator or target shows as latency on the commands
// behind it; late records how far behind its schedule the generator ran.
// A command still outstanding grace after the last send counts as failed.
func (c *liveClient) openLoop(rate float64, dur, grace time.Duration) openLoopResult {
	res := openLoopResult{lat: newFineHist(), late: newFineHist()}
	due := make([]atomic.Int64, 1<<16) // by CID: due time, 0 = not outstanding
	var sent, received atomic.Int64
	var wg sync.WaitGroup
	var recvErr error
	deadline := time.Now().Add(dur + grace)
	wg.Add(1)
	go func() { // receiver
		defer wg.Done()
		c.conn.SetReadDeadline(deadline)
		defer c.conn.SetReadDeadline(time.Time{})
		for {
			if s := sent.Load(); s < 0 && received.Load() == -s-1 {
				return // sender finished (sent is stored as -(n+1)) and all are in
			}
			err := c.read(func(r response, now int64) {
				t := due[r.cid].Swap(0)
				received.Add(1)
				if !r.wellMet || t == 0 || r.dataLen != liveRead4K.size {
					res.failed++
					return
				}
				res.completed++
				res.lat.record(now - t)
			})
			if err != nil {
				if ne, ok := err.(interface{ Timeout() bool }); !ok || !ne.Timeout() {
					recvErr = err
				}
				return
			}
		}
	}()

	start := c.now()
	end := start + dur.Nanoseconds()
	next := start + int64(c.rng.Exp(1e9/rate))
	var n int64
	for next < end && res.err == nil {
		now := c.now()
		if now < next {
			time.Sleep(time.Duration(next - now))
			now = c.now()
		}
		for next <= now && next < end {
			if n-received.Load() >= 1<<15 {
				res.err = fmt.Errorf("live open loop: %d commands outstanding", n-received.Load())
				break
			}
			cid := uint16(n)
			due[cid].Store(next)
			c.cmd = fabric.CommandCapsule{Opcode: nvme.OpRead, CID: cid, NSID: c.nsid, Priority: nvme.PriorityNormal,
				SLBA: uint64(c.rng.Int63n(liveCapacity/4096 - 1)), Length: uint32(liveRead4K.size)}
			c.wbuf = binary.BigEndian.AppendUint32(c.wbuf, uint32(fabric.CommandWireLen(0)))
			c.wbuf = fabric.AppendCommand(c.wbuf, &c.cmd)
			res.late.record(now - next)
			n++
			sent.Store(n)
			next += int64(c.rng.Exp(1e9 / rate))
		}
		if err := c.flush(); err != nil {
			res.err = err
		}
	}
	sent.Store(-n - 1)
	// Unblock a receiver that already has everything: the next Read would
	// otherwise sit until the deadline.
	if received.Load() == n {
		c.conn.SetReadDeadline(time.Now())
	} else {
		c.conn.SetReadDeadline(time.Now().Add(grace))
	}
	wg.Wait()
	if res.err == nil {
		res.err = recvErr
	}
	res.attempted = n
	res.failed += n - res.completed - res.failed // still outstanding after the grace period
	c.attempted += res.attempted
	c.completed += res.completed
	c.failed += res.failed
	return res
}

// codecNs times one codec call in a tight loop: fast batch of ns per op
// over batches.
func codecNs(op func()) float64 {
	const iters = 200_000
	var xs []float64
	for b := 0; b <= 5; b++ {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			op()
		}
		if b > 0 {
			xs = append(xs, float64(time.Since(t0).Nanoseconds())/iters)
		}
	}
	return fastBatch(xs)
}

var codecSink int // keeps the codec loops' results alive

func codecMetrics(m map[string]float64) error {
	cmd := fabric.CommandCapsule{Opcode: nvme.OpRead, CID: 7, NSID: 1, SLBA: 12345, Length: 4096}
	var buf []byte
	m["fabric.codec_cmd_encode_ns"] = codecNs(func() { buf = fabric.AppendCommand(buf[:0], &cmd) })
	var dec fabric.CommandCapsule
	var err error
	m["fabric.codec_cmd_decode_ns"] = codecNs(func() {
		n, e := fabric.DecodeCommandInto(&dec, buf)
		codecSink += n
		if e != nil {
			err = e
		}
	})
	wr := fabric.CommandCapsule{Opcode: nvme.OpWrite, CID: 7, NSID: 1, SLBA: 16, Length: 64 << 10, Data: make([]byte, 64<<10)}
	big := fabric.AppendCommand(nil, &wr)
	m["fabric.codec_cmd_decode_64k_ns"] = codecNs(func() {
		n, e := fabric.DecodeCommandInto(&dec, big)
		codecSink += n
		if e != nil {
			err = e
		}
	})
	rsp := fabric.ResponseCapsule{CID: 7, Credit: 32}
	var rbuf []byte
	m["fabric.codec_rsp_encode_ns"] = codecNs(func() { rbuf = fabric.AppendResponse(rbuf[:0], &rsp) })
	m["fabric.codec_rsp_decode_ns"] = codecNs(func() {
		_, n, e := fabric.DecodeResponse(rbuf)
		codecSink += n
		if e != nil {
			err = e
		}
	})
	return err
}

// runLiveTraced is `-trace 1` on live-null-mixed. The live datapath runs on
// goroutines the benchmark does not own, so it is priced from its public
// edges: the client's four calls per batch of bytes, the socket call
// counts, the process's context switches, the server's own counters, the
// codec called directly, and an open-loop phase.
func runLiveTraced(seed uint64, seconds int) (*result, error) {
	runtime.GOMAXPROCS(liveGatedProcs) // as the end-to-end run
	res := newResult()
	m := res.metrics
	n := traceWindows(seconds, liveBatchPerSec)
	// As on the simulator plane the per-layer host times are raw; the
	// yardstick only reports how slow the box was during the reference pass.
	y, err := newYardstick()
	if err != nil {
		return nil, err
	}
	defer y.close()
	lr, err := startLiveRun(seed, liveRigs)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*result, error) {
		lr.finish(res)
		return nil, err
	}
	g := lr.g[0]
	rigs := lr.g[:1] // the traced pass and the phases after it use one rig

	// Reference pass, tracing off, over every rig. Each rig runs a batch first
	// so that its one-time allocations (slot pools, buffers grown to size)
	// stay out of the runtime figures.
	if _, err := phase(lr.g, liveRead4K, 32, liveP1PerConn, liveConns, 0, nil); err != nil {
		return fail(err)
	}
	mem0 := readMem()
	_, cs0 := cpuNs()
	ref, err := phase(lr.g, liveRead4K, 32, liveP1PerConn, liveConns, n, y)
	if err != nil {
		return fail(err)
	}
	for i := range ref {
		ref[i].slow = 1
	}
	m["rt.yard_slowdown"] = median(y.ticks)
	m["live.slow_batch_pct"] = slowBatchPct(ref)
	_, cs1 := cpuNs()
	mem1 := readMem()
	var ios float64
	for _, b := range ref {
		ios += float64(b.ios)
	}
	refNs := fastBatch(batchField(ref, nsPerIO))
	m["rt.fast_batch_ns_per_io"] = refNs
	m["live.rd_p50_us"] = median(batchField(ref, p50Us))
	m["live.rd_p99_us"] = median(batchField(ref, p99Us))
	// ReadMemStats and each rig's discarded first batch are inside the bracket.
	m["live.ctxsw_per_kio"] = float64(cs1-cs0) / (ios * float64(n+liveRigs) / float64(n)) * 1e3
	m["rt.allocs_per_io"] = float64(mem1.Mallocs-mem0.Mallocs) / ios
	m["rt.alloc_bytes_per_io"] = float64(mem1.TotalAlloc-mem0.TotalAlloc) / ios
	m["rt.gc_cycles"] = float64(mem1.NumGC - mem0.NumGC)
	m["rt.gc_pause_ms"] = float64(mem1.PauseTotalNs-mem0.PauseTotalNs) / 1e6
	m["rt.heap_sys_MB"] = float64(mem1.HeapSys) / 1e6
	m["rt.batch_iqr_pct"] = iqrPct(batchField(ref, iops))

	// Traced pass: spans around the client's calls, socket calls counted.
	var inflightMax atomic.Int64
	for i, c := range g.clients {
		c.sp = &liveSpans{epoch: c.epoch, conn: int64(i)}
		c.probe = func() {
			if v := g.srv.srv.Inflight(); v > inflightMax.Load() {
				inflightMax.Store(v)
			}
		}
		c.conn.reads, c.conn.writes = 0, 0
	}
	traced, err := phase(rigs, liveRead4K, 32, liveP1PerConn, liveConns, n, nil)
	if err != nil {
		return fail(err)
	}
	var tIOs, connNs float64
	for _, b := range traced {
		tIOs += float64(b.ios)
		for _, ns := range b.connNs {
			connNs += float64(ns)
		}
	}
	allIOs := tIOs * float64(n+1) / float64(n) // spans and call counts cover the discarded batch too
	var inCalls, reads, writes float64
	var spans []rawSpan
	for _, c := range g.clients {
		inCalls += float64(c.sp.ns[spanWrite] + c.sp.ns[spanRead])
		reads += float64(c.conn.reads)
		writes += float64(c.conn.writes)
		spans = append(spans, c.sp.raw...)
		c.sp, c.probe = nil, nil
	}
	m["live.client_self_ns_per_io"] = (connNs*float64(n+1)/float64(n) - inCalls) / allIOs
	m["live.client_reads_per_io"] = reads / allIOs
	m["live.client_writes_per_io"] = writes / allIOs
	m["live.inflight_max"] = float64(inflightMax.Load())
	tracedNs := fastBatch(batchField(traced, nsPerIO))
	m["trace.host_ns_per_io"] = tracedNs
	m["trace.overhead_pct"] = (tracedNs/refNs - 1) * 100

	// Tails of the other closed-loop phases.
	p2, err := phase(rigs, liveRead4K, 1, liveP2PerConn, 1, n, nil)
	if err != nil {
		return fail(err)
	}
	m["live.qd1_p99_us"] = median(batchField(p2, p99Us))
	p3, err := phase(rigs, liveWrite64K, 4, liveP3PerConn, liveConns, n, nil)
	if err != nil {
		return fail(err)
	}
	m["live.wr_p99_us"] = median(batchField(p3, p99Us))

	// P4: open loop at a fixed 100k IOPS, 50k per connection.
	dur := time.Duration(seconds) * time.Second / 4
	ol := make([]openLoopResult, liveConns)
	var wg sync.WaitGroup
	for i, c := range g.clients {
		wg.Add(1)
		go func(i int, c *liveClient) {
			defer wg.Done()
			ol[i] = c.openLoop(50_000, dur, time.Second)
		}(i, c)
	}
	wg.Wait()
	lat, late := newFineHist(), newFineHist()
	var olDone int64
	for i := range ol {
		if ol[i].err != nil {
			return fail(fmt.Errorf("live open loop, conn %d: %w", i, ol[i].err))
		}
		lat.merge(ol[i].lat)
		late.merge(ol[i].late)
		olDone += ol[i].completed
	}
	m["live.ol_p50_us"] = lat.us(0.5)
	m["live.ol_p99_us"] = lat.us(0.99)
	m["live.ol_late_us_p99"] = late.us(0.99)
	m["live.ol_achieved_iops"] = float64(olDone) / dur.Seconds()

	// P5: the loaded read phase again on two Ps, the reactor running beside
	// its clients as in a deployment. Reported, not gated: see liveGatedProcs.
	runtime.GOMAXPROCS(2)
	cpu0, _ := cpuNs()
	p5, err := phase(rigs, liveRead4K, 32, liveP1PerConn, liveConns, n, nil)
	cpu1, _ := cpuNs()
	runtime.GOMAXPROCS(liveGatedProcs)
	if err != nil {
		return fail(err)
	}
	m["live.p2_rd_iops"] = median(batchField(p5, iops))
	m["live.p2_rd_p99_us"] = median(batchField(p5, p99Us))
	m["live.p2_cpu_ns_per_io"] = float64(cpu1-cpu0) / (float64(n+1) * float64(p5[0].ios)) // the discarded batch is inside the bracket
	m["live.p2_speedup"] = m["live.p2_rd_iops"] / median(batchField(ref, iops))

	// The server's own account, through its public counters and registry.
	var rx, tx int64
	for _, st := range g.srv.srv.ReactorStats() {
		rx += st.RxCapsules
		tx += st.TxCapsules
	}
	m["live.rx_capsules"] = float64(rx)
	m["live.tx_capsules"] = float64(tx)
	snap := g.srv.shard.Snapshot()
	served := int64(obs.SumMetric(snap, "tenant_completed_ops_total"))
	g.srv.shards.Lock() // the switch belongs to the reactor's shard
	controlLoopMetrics(snap, g.srv.target.Pipeline(0).Gimbal, m)
	g.srv.shards.Unlock()
	var completed int64
	for _, c := range g.clients {
		completed += c.completed
	}
	if err := codecMetrics(m); err != nil {
		return fail(fmt.Errorf("codec: %w", err))
	}
	shutdown, err := lr.finish(res)
	if err != nil {
		return nil, err
	}
	m["live.shutdown_ms"] = float64(shutdown.Nanoseconds()) / 1e6
	if served != completed || rx != tx || tx != completed {
		return nil, fmt.Errorf("live: clients saw %d completions, the registry counts %d, the reactor %d in / %d out",
			completed, served, rx, tx)
	}

	tf := traceFile{Workload: liveName, Seed: seed, Metrics: m, Spans: spans,
		Note: "client-side spans only (encode, write, read, decode; io = connection); the server is priced from its public counters"}
	path, err := writeOut("trace-"+liveName+".json", tf)
	if err != nil {
		return nil, err
	}
	res.notes = append(res.notes,
		fmt.Sprintf("transport: loopback TCP inside one process (a socket pair, not a link); GOMAXPROCS=%d except P5 (2)", liveGatedProcs),
		fmt.Sprintf("reference pass %d batches at %.1f ns/IO, traced pass at %.1f ns/IO; open loop %v at 2 x 50k/s: %d completed",
			n, refNs, tracedNs, dur, olDone),
		"spans written to "+path)
	return res, nil
}
