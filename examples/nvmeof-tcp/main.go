// NVMe-oF over TCP, live: starts a gimbald-equivalent target in-process on
// a loopback socket (wall-clock SSD models behind the Gimbal switch),
// dials it with two initiator clients, and runs a short mixed benchmark —
// real sockets, real capsule framing, real credit piggybacking.
//
//	go run ./examples/nvmeof-tcp
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"gimbal/internal/fabric"
	"gimbal/internal/nvme"
	"gimbal/internal/sim"
	"gimbal/internal/ssd"
	"gimbal/internal/stats"
)

func main() {
	// Target: one wall-clock SSD behind the Gimbal switch, served by one
	// reactor (gimbald runs one per core).
	shards := sim.NewRealShards(1)
	params := ssd.DCT983()
	params.UsableBytes = 512 << 20
	st, err := fabric.BuildStack([]sim.Scheduler{shards.Shard(0)}, sim.NewRNG(1), fabric.StackConfig{
		Params: params, Cond: ssd.Clean, Target: fabric.DefaultTargetConfig(fabric.SchemeGimbal),
	})
	if err != nil {
		log.Fatal(err)
	}
	target := st.Target
	srv, err := fabric.ServeTCPReactors(shards, target, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer shards.Stop() // after the server: the switch's housekeeping timers end with it
	defer srv.Close()
	fmt.Printf("target listening on %s\n", srv.Addr())

	// Two tenants: a 4KB reader and a 64KB writer, each over its own
	// connection with the Gimbal credit gate on the client side.
	var wg sync.WaitGroup
	run := func(name string, op nvme.Opcode, size int, qd int) {
		defer wg.Done()
		client, err := fabric.DialTCP(srv.Addr(), fabric.SchemeGimbal)
		if err != nil {
			log.Fatal(err)
		}
		defer client.Close()
		var payload []byte
		if op == nvme.OpWrite {
			payload = make([]byte, size)
		}
		hist := stats.NewHistogram()
		var mu sync.Mutex
		var bytes int64
		deadline := time.Now().Add(2 * time.Second)
		var inner sync.WaitGroup
		for i := 0; i < qd; i++ {
			inner.Add(1)
			go func(seed int64) {
				defer inner.Done()
				off := seed * int64(size) * 101
				for time.Now().Before(deadline) {
					off = (off + int64(size)) % (params.UsableBytes - int64(size))
					off = off / 4096 * 4096
					t0 := time.Now()
					rsp, err := client.DoIO(op, 0, off, size, payload)
					if err != nil {
						return
					}
					if rsp.Status != nvme.StatusOK {
						continue
					}
					mu.Lock()
					hist.Record(time.Since(t0).Nanoseconds())
					bytes += int64(size)
					mu.Unlock()
				}
			}(int64(i))
		}
		inner.Wait()
		fmt.Printf("%s: %.1f MB/s over TCP, avg %v p99 %v, credit headroom %d\n",
			name, float64(bytes)/2e6,
			time.Duration(hist.Mean()).Round(time.Microsecond),
			time.Duration(hist.P99()).Round(time.Microsecond),
			client.Headroom())
	}
	wg.Add(2)
	go run("reader (4KB)", nvme.OpRead, 4096, 16)
	go run("writer (64KB)", nvme.OpWrite, 64<<10, 4)
	wg.Wait()

	// The congestion controller starts conservative (400 MB/s target,
	// worst-case write cost) and probes upward from completions, so a
	// short run mostly shows the ramp.
	shards.Lock()
	v := target.Pipeline(0).Gimbal.View()
	shards.Unlock()
	fmt.Printf("virtual view after run: target %.0f MB/s, write cost %.1f "+
		"(still ramping from cold start)\n", v.TargetRateBps/1e6, v.WriteCost)
}
