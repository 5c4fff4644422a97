package bench

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gimbal/internal/fabric"
	"gimbal/internal/nvme"
	"gimbal/internal/sim"
	"gimbal/internal/ssd"
)

func init() {
	register("live-tcp", "Live loopback-TCP IOPS: per-SSD reactor scaling, R=1 as baseline", runLiveTCP)
}

// Live measurement windows. Unlike the simulated experiments these are
// wall-clock durations, so live-tcp reports are NOT byte-identical across
// runs — keep it out of determinism goldens.
var (
	liveTCPWarm    = 100 * time.Millisecond
	liveTCPMeasure = 400 * time.Millisecond
)

const (
	liveTCPSSDs  = 8
	liveTCPConns = 8
	liveTCPQD    = 32
	liveTCPIO    = 4096
)

// startLiveTCP brings up a NULL-device target (zero service time,
// synchronous completion — all measured cost is transport + scheduling)
// on the reactor datapath with the given shard count.
func startLiveTCP(reactors int) (*fabric.TCPReactors, error) {
	cfg := fabric.DefaultTargetConfig(fabric.SchemeVanilla)
	shards := sim.NewRealShards(reactors)
	devs := make([]ssd.Device, liveTCPSSDs)
	for i := range devs {
		devs[i] = ssd.NewNull(shards.Shard(i%shards.N()), 256<<20, 0)
	}
	return fabric.ServeTCPReactors(shards, fabric.NewReactorTarget(shards, devs, cfg), "127.0.0.1:0")
}

// liveTCPClient is one closed-loop pipelined initiator: it keeps
// liveTCPQD 4KB reads in flight on one connection against one namespace
// and counts completions.
func liveTCPClient(addr string, nsid uint8, count *atomic.Int64, stop *atomic.Bool, wg *sync.WaitGroup, errs chan<- error) {
	defer wg.Done()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		errs <- err
		return
	}
	defer conn.Close()
	cmd := fabric.AppendCommand(
		binary.BigEndian.AppendUint32(nil, uint32(fabric.CommandWireLen(0))),
		&fabric.CommandCapsule{Opcode: nvme.OpRead, CID: 1, NSID: nsid, Length: liveTCPIO},
	)
	rsp := make([]byte, 4+fabric.ResponseWireLen(liveTCPIO))
	for i := 0; i < liveTCPQD; i++ {
		if _, err := conn.Write(cmd); err != nil {
			errs <- err
			return
		}
	}
	for !stop.Load() {
		if _, err := io.ReadFull(conn, rsp); err != nil {
			errs <- err
			return
		}
		count.Add(1)
		if _, err := conn.Write(cmd); err != nil {
			errs <- err
			return
		}
	}
	// Drain the pipeline so the server sees a clean teardown.
	for i := 0; i < liveTCPQD; i++ {
		if _, err := io.ReadFull(conn, rsp); err != nil {
			return
		}
	}
}

// measureLiveTCP runs one scaling point and returns measured IOPS.
func measureLiveTCP(reactors int) (float64, error) {
	srv, err := startLiveTCP(reactors)
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	var count atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, liveTCPConns)
	for i := 0; i < liveTCPConns; i++ {
		wg.Add(1)
		go liveTCPClient(srv.Addr(), uint8(i%liveTCPSSDs), &count, &stop, &wg, errs)
	}
	time.Sleep(liveTCPWarm)
	c0 := count.Load()
	time.Sleep(liveTCPMeasure)
	c1 := count.Load()
	stop.Store(true)
	wg.Wait()
	select {
	case err := <-errs:
		return 0, err
	default:
	}
	return float64(c1-c0) / liveTCPMeasure.Seconds(), nil
}

func runLiveTCP(cx *Ctx) []*Result {
	res := &Result{
		ID:     "live-tcp",
		Title:  "Aggregate 4KB read IOPS over loopback TCP, NULL devices (wall-clock, not deterministic)",
		Header: []string{"reactors", "conns", "qd", "iops", "vs_r1"},
	}
	var baseline float64
	for _, r := range []int{1, 2, 4, 8} {
		iops, err := measureLiveTCP(r)
		if err != nil {
			res.Notef("reactors=%d failed: %v", r, err)
			continue
		}
		if baseline == 0 {
			baseline = iops
		}
		res.AddRow(fmt.Sprint(r), fmt.Sprint(liveTCPConns), fmt.Sprint(liveTCPQD),
			fmt.Sprintf("%.0f", iops), fmt.Sprintf("%.2fx", iops/baseline))
	}
	res.Notef("GOMAXPROCS=%d NumCPU=%d; reactor scaling needs real cores — on a single-core host "+
		"all shards timeshare one CPU and the curve is flat by construction",
		runtime.GOMAXPROCS(0), runtime.NumCPU())
	return []*Result{res}
}
