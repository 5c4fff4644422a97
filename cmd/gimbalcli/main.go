// Command gimbalcli is the initiator-side load generator and admin tool
// for gimbald: an fio-style closed-loop benchmark over the TCP capsule
// protocol, with the Gimbal credit gate on the client when the target runs
// the Gimbal scheme.
//
//	gimbalcli -addr 127.0.0.1:4420 -op read -size 4096 -qd 32 -dur 10s
//	gimbalcli -addr 127.0.0.1:4420 -op write -size 131072 -qd 4 -seq -dur 5s
//
// -conns N spreads the queue depth over N TCP connections (worker i uses
// connection i%N), matching a reactor-sharded target (gimbald -reactors)
// where each connection lands on one shard: one connection serializes on a
// single reactor, N connections exercise the sharded datapath.
//
// The top subcommand is the live view of the daemon's observability
// endpoint: every interval it samples /stats and /slo and redraws the
// per-SSD control-loop state (write cost, target and completion rates,
// latency EWMAs, queued IOs, write amplification, GC pages) and a
// per-tenant table (interval bandwidth and IOPS, credit, fair utilization,
// SLO attainment, burn rate, errors). -n stops after that many frames;
// -tenant narrows the tenant rows to one name. stats is top -n 1.
//
//	gimbalcli top   -admin 127.0.0.1:9420 -interval 1s [-n 10] [-tenant t0]
//	gimbalcli stats -admin 127.0.0.1:9420 -interval 1s [-tenant t0]
//
// The volume subcommand provisions against the daemon's CSI-shaped
// control plane: create/list/resize volumes, cut snapshots, clone them,
// and delete either — see volume.go.
//
//	gimbalcli volume create -admin 127.0.0.1:9420 -name v0 -size 1G -class gold
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"gimbal/internal/fabric"
	"gimbal/internal/nvme"
	"gimbal/internal/obs"
	"gimbal/internal/stats"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "stats", "top":
			topMain(os.Args[1], os.Args[2:])
			return
		case "volume":
			volumeMain(os.Args[2:])
			return
		}
	}
	var (
		addr   = flag.String("addr", "127.0.0.1:4420", "target address")
		scheme = flag.String("scheme", "gimbal", "client gate matching the target scheme")
		op     = flag.String("op", "read", "read or write")
		size   = flag.Int("size", 4096, "IO size in bytes (4KB aligned)")
		qd     = flag.Int("qd", 32, "queue depth")
		conns  = flag.Int("conns", 1, "TCP connections; workers round-robin across them")
		seq    = flag.Bool("seq", false, "sequential offsets")
		nsid   = flag.Int("ns", 0, "namespace (SSD index)")
		span   = flag.Int64("span", 1<<30, "offset range in bytes")
		dur    = flag.Duration("dur", 10*time.Second, "run duration")
	)
	flag.Parse()
	sch, err := checkLoad(*scheme, *op, *size, *span, *qd, *conns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gimbalcli: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	clients := make([]*fabric.TCPClient, *conns)
	for i := range clients {
		clients[i], err = fabric.DialTCP(*addr, sch)
		if err != nil {
			log.Fatal(err)
		}
		defer clients[i].Close()
	}

	opcode := nvme.OpRead
	if *op == "write" {
		opcode = nvme.OpWrite
	}
	var payload []byte
	if opcode == nvme.OpWrite {
		payload = make([]byte, *size)
	}

	var (
		mu    sync.Mutex
		hist  = stats.NewHistogram()
		bytes atomic.Int64
		errs  atomic.Int64
		stop  = time.Now().Add(*dur)
		wg    sync.WaitGroup
	)
	var cursor atomic.Int64
	nextOffset := func(r *rand.Rand) int64 {
		slots := *span / int64(*size)
		if *seq {
			return (cursor.Add(1) % slots) * int64(*size)
		}
		return r.Int63n(slots) * int64(*size)
	}
	for i := 0; i < *qd; i++ {
		wg.Add(1)
		go func(seed int64, client *fabric.TCPClient) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for time.Now().Before(stop) {
				t0 := time.Now()
				rsp, err := client.Do(&fabric.CommandCapsule{
					Opcode: opcode,
					NSID:   uint8(*nsid),
					SLBA:   uint64(nextOffset(r)) / 4096,
					Length: uint32(*size),
					Data:   payload,
				})
				if err != nil {
					errs.Add(1)
					return
				}
				if rsp.Status != nvme.StatusOK {
					errs.Add(1)
					continue
				}
				lat := time.Since(t0).Nanoseconds()
				mu.Lock()
				hist.Record(lat)
				mu.Unlock()
				bytes.Add(int64(*size))
			}
		}(int64(i)+1, clients[i%*conns])
	}
	wg.Wait()

	headroom := 0
	for _, c := range clients {
		headroom += c.Headroom()
	}
	sec := dur.Seconds()
	fmt.Printf("%s %dB qd%d conns%d: %.1f MB/s, %.0f IOPS\n",
		*op, *size, *qd, *conns, float64(bytes.Load())/1e6/sec, float64(hist.Count())/sec)
	fmt.Printf("latency: avg %.0fus p50 %dus p99 %dus p99.9 %dus max %dus\n",
		hist.Mean()/1e3, hist.P50()/1000, hist.P99()/1000, hist.P999()/1000, hist.Max()/1000)
	fmt.Printf("errors: %d, credit headroom at exit: %d\n", errs.Load(), headroom)
}

// checkLoad rejects load flags the workers cannot run and returns the
// scheme's client gate: the scheme is one gimbald serves, the op is a read
// or a write, every IO is a positive number of 4 KiB blocks, the offset
// range holds at least one IO, and there is at least one worker and one
// connection.
func checkLoad(scheme, op string, size int, span int64, qd, conns int) (fabric.Scheme, error) {
	sch, err := fabric.ParseScheme(scheme)
	switch {
	case err != nil:
		return 0, fmt.Errorf("-scheme: %v", err)
	case op != "read" && op != "write":
		return 0, fmt.Errorf("-op %q: need read or write", op)
	case size <= 0 || size%4096 != 0:
		return 0, fmt.Errorf("-size %d: need a positive multiple of 4096", size)
	case span < int64(size):
		return 0, fmt.Errorf("-span %d: need at least -size (%d)", span, size)
	case qd < 1:
		return 0, fmt.Errorf("-qd %d: need at least 1", qd)
	case conns < 1:
		return 0, fmt.Errorf("-conns %d: need at least one connection", conns)
	}
	return sch, nil
}

// topMain implements `gimbalcli top` and `gimbalcli stats`, which is top
// with -n defaulting to one frame.
func topMain(cmd string, args []string) {
	frames := 0
	if cmd == "stats" {
		frames = 1
	}
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	var (
		admin    = fs.String("admin", "127.0.0.1:9420", "gimbald observability address")
		interval = fs.Duration("interval", time.Second, "sampling interval")
		n        = fs.Int("n", frames, "frames before exiting (0 = until interrupted)")
		tenant   = fs.String("tenant", "", "show only this tenant's rows")
	)
	fs.Parse(args)
	if *interval <= 0 || *n < 0 {
		fmt.Fprintf(os.Stderr, "gimbalcli %s: need -interval > 0 and -n >= 0\n", cmd)
		fs.Usage()
		os.Exit(2)
	}
	if err := top(os.Stdout, *admin, *interval, *n, *tenant); err != nil {
		log.Fatal(err)
	}
}

// top writes n frames (0 = until interrupted) of the live view of the
// daemon whose observability endpoint is admin, one per interval, each
// from the interval's pair of /stats samples and the /slo report at its
// end. A view of more than one frame clears the screen before each.
func top(w io.Writer, admin string, interval time.Duration, n int, tenant string) error {
	var prev *fabric.TargetStats
	for i := 0; n == 0 || i < n; {
		if prev != nil {
			time.Sleep(interval)
		}
		cur := new(fabric.TargetStats)
		if err := adminDo("GET", "http://"+admin+"/stats", nil, cur); err != nil {
			return err
		}
		if prev != nil {
			// A daemon without the SLO engine serves "{}": an empty report.
			slo := new(obs.SLOReport)
			if err := adminDo("GET", "http://"+admin+"/slo", nil, slo); err != nil {
				return err
			}
			if n != 1 {
				fmt.Fprint(w, "\033[H\033[2J") // clear, cursor home
			}
			render(w, prev, cur, slo, tenant, interval)
			i++
		}
		prev = cur
	}
	return nil
}

// render writes one frame of the live view: the target line, one line of
// control-loop and device state per SSD, one row per tenant (interval
// rates between prev and cur, credit, fair utilization, SLO standing,
// errors) and the correlated events. The control-loop fields print only on
// the Gimbal scheme, which sets them.
func render(w io.Writer, prev, cur *fabric.TargetStats, slo *obs.SLOReport, tenant string, interval time.Duration) {
	type key struct {
		ssd    int
		tenant string
	}
	before := map[key]fabric.TenantStats{}
	for _, s := range prev.SSDs {
		for _, t := range s.Tenants {
			before[key{t.SSD, t.Tenant}] = t
		}
	}
	dt := float64(cur.NowNs-prev.NowNs) / 1e9
	if dt <= 0 {
		dt = interval.Seconds()
	}
	standing := map[string]obs.SLOTenantReport{}
	for _, tr := range slo.Tenants {
		standing[tr.Tenant] = tr
	}

	fmt.Fprintf(w, "target: scheme=%s ssds=%d jain=%.3f (interval %.2fs)\n",
		cur.Scheme, len(cur.SSDs), cur.Jain, dt)
	for _, s := range cur.SSDs {
		fmt.Fprintf(w, "ssd %d:", s.SSD)
		if s.WriteCost > 0 {
			fmt.Fprintf(w, " write_cost=%.2f target=%.0fMB/s completion=%.0fMB/s ewma r/w=%.0f/%.0fus queued=%d",
				s.WriteCost, s.TargetRateMBps, s.CompletionRateMBps,
				s.ReadEWMAUs, s.WriteEWMAUs, s.Queued)
		}
		if s.Device != nil {
			fmt.Fprintf(w, " WA=%.2f gc_pages=%d", s.Device.WriteAmp, s.Device.GCMovedPages)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-18s %4s %10s %10s %8s %8s %8s %8s %8s\n",
		"tenant", "ssd", "MB/s", "IOPS", "credit", "f-util", "met%", "burn", "errors")
	for _, s := range cur.SSDs {
		for _, t := range s.Tenants {
			if tenant != "" && t.Tenant != tenant {
				continue
			}
			b := before[key{t.SSD, t.Tenant}]
			met, burn := 100.0, 0.0
			if tr, ok := standing[t.Tenant]; ok {
				met = tr.MetFraction * 100
				// The longest window's burn is the most stable signal.
				if len(tr.Windows) > 0 {
					burn = tr.Windows[len(tr.Windows)-1].BurnRate
				}
			}
			fmt.Fprintf(w, "%-18s %4d %10.1f %10.0f %8d %8.2f %8.2f %8.2f %8d\n",
				t.Tenant, t.SSD, float64(t.Bytes-b.Bytes)/1e6/dt, float64(t.Ops-b.Ops)/dt,
				t.Credit, t.FUtil, met, burn, t.Errors)
		}
	}
	if len(slo.Events) > 0 {
		active := 0
		for _, ev := range slo.Events {
			if ev.Active {
				active++
			}
		}
		last := slo.Events[len(slo.Events)-1]
		fmt.Fprintf(w, "events: %d correlated (%d active), last: %s %s\n",
			len(slo.Events), active, last.Kind, last.Detail)
	}
}
