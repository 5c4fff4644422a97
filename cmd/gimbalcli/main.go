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
// The stats subcommand renders the daemon's observability endpoint: it
// samples /stats twice and reports per-tenant interval bandwidth, credit,
// and the per-SSD control-loop state (write cost, target rate, latency
// EWMAs). -tenant narrows the per-tenant rows to one name.
//
//	gimbalcli stats -admin 127.0.0.1:9420 -interval 1s [-tenant t0]
//
// The top subcommand is the live view: it polls /stats and /slo together
// and redraws a combined per-tenant table (interval bandwidth, credit,
// SLO attainment, burn rate) every interval until interrupted.
//
//	gimbalcli top -admin 127.0.0.1:9420 -interval 1s [-n 10]
//
// The volume subcommand provisions against the daemon's CSI-shaped
// control plane: create/list/resize volumes, cut snapshots, clone them,
// and delete either — see volume.go.
//
//	gimbalcli volume create -admin 127.0.0.1:9420 -name v0 -size 1G -class gold
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
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
	if len(os.Args) > 1 && os.Args[1] == "stats" {
		statsMain(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "top" {
		topMain(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "volume" {
		volumeMain(os.Args[2:])
		return
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
	if err := checkLoad(*op, *size, *span, *qd, *conns); err != nil {
		fmt.Fprintf(os.Stderr, "gimbalcli: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}

	sch, err := fabric.ParseScheme(*scheme)
	if err != nil {
		log.Fatal(err)
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

// checkLoad rejects load flags the workers cannot run: the op is a read or
// a write, every IO is a positive number of 4 KiB blocks, the offset range
// holds at least one IO, and there is at least one worker and one
// connection.
func checkLoad(op string, size int, span int64, qd, conns int) error {
	switch {
	case op != "read" && op != "write":
		return fmt.Errorf("-op %q: need read or write", op)
	case size <= 0 || size%4096 != 0:
		return fmt.Errorf("-size %d: need a positive multiple of 4096", size)
	case span < int64(size):
		return fmt.Errorf("-span %d: need at least -size (%d)", span, size)
	case qd < 1:
		return fmt.Errorf("-qd %d: need at least 1", qd)
	case conns < 1:
		return fmt.Errorf("-conns %d: need at least one connection", conns)
	}
	return nil
}

// fetchStats GETs and decodes one /stats snapshot.
func fetchStats(url string) (*fabric.TargetStats, error) {
	rsp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer rsp.Body.Close()
	if rsp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", url, rsp.Status)
	}
	var ts fabric.TargetStats
	if err := json.NewDecoder(rsp.Body).Decode(&ts); err != nil {
		return nil, err
	}
	return &ts, nil
}

// statsMain implements `gimbalcli stats`: two /stats samples an interval
// apart, rendered as per-SSD control-loop state plus per-tenant interval
// bandwidth, IOPS, credit, and live fairness.
func statsMain(args []string) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	var (
		admin    = fs.String("admin", "127.0.0.1:9420", "gimbald observability address")
		interval = fs.Duration("interval", time.Second, "bandwidth sampling interval")
		tenant   = fs.String("tenant", "", "show only this tenant's rows")
	)
	fs.Parse(args)
	url := "http://" + *admin + "/stats"

	before, err := fetchStats(url)
	if err != nil {
		log.Fatal(err)
	}
	time.Sleep(*interval)
	after, err := fetchStats(url)
	if err != nil {
		log.Fatal(err)
	}

	// Index the first sample's per-tenant byte counts for interval rates.
	type key struct {
		ssd    int
		tenant string
	}
	prevBytes := map[key]int64{}
	prevOps := map[key]int64{}
	for _, s := range before.SSDs {
		for _, t := range s.Tenants {
			prevBytes[key{t.SSD, t.Tenant}] = t.Bytes
			prevOps[key{t.SSD, t.Tenant}] = t.Ops
		}
	}
	dt := float64(after.NowNs-before.NowNs) / 1e9
	if dt <= 0 {
		dt = interval.Seconds()
	}

	fmt.Printf("target: scheme=%s ssds=%d jain=%.3f (interval %.2fs)\n",
		after.Scheme, len(after.SSDs), after.Jain, dt)
	for _, s := range after.SSDs {
		fmt.Printf("ssd %d:", s.SSD)
		if s.WriteCost > 0 {
			fmt.Printf(" write_cost=%.2f target=%.0fMB/s completion=%.0fMB/s ewma r/w=%.0f/%.0fus queued=%d",
				s.WriteCost, s.TargetRateMBps, s.CompletionRateMBps,
				s.ReadEWMAUs, s.WriteEWMAUs, s.Queued)
		}
		if s.Device != nil {
			fmt.Printf(" WA=%.2f gc_pages=%d", s.Device.WriteAmp, s.Device.GCMovedPages)
		}
		fmt.Println()
		rows := s.Tenants
		if *tenant != "" {
			rows = rows[:0:0]
			for _, t := range s.Tenants {
				if t.Tenant == *tenant {
					rows = append(rows, t)
				}
			}
		}
		if len(rows) == 0 {
			continue
		}
		fmt.Printf("  %-18s %10s %10s %8s %8s %8s\n",
			"tenant", "MB/s", "IOPS", "credit", "f-util", "errors")
		for _, t := range rows {
			k := key{t.SSD, t.Tenant}
			dBytes := float64(t.Bytes - prevBytes[k])
			dOps := float64(t.Ops - prevOps[k])
			fmt.Printf("  %-18s %10.1f %10.0f %8d %8.2f %8d\n",
				t.Tenant, dBytes/1e6/dt, dOps/dt, t.Credit, t.FUtil, t.Errors)
		}
	}
}

// fetchSLO GETs and decodes one /slo report. A daemon running without the
// SLO engine serves "{}", which decodes to an empty report.
func fetchSLO(url string) (*obs.SLOReport, error) {
	rsp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer rsp.Body.Close()
	if rsp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", url, rsp.Status)
	}
	var rep obs.SLOReport
	if err := json.NewDecoder(rsp.Body).Decode(&rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// topMain implements `gimbalcli top`: a live per-tenant view joining
// /stats (interval bandwidth, credit) with /slo (attainment, burn rate,
// correlated events), redrawn every interval.
func topMain(args []string) {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	var (
		admin    = fs.String("admin", "127.0.0.1:9420", "gimbald observability address")
		interval = fs.Duration("interval", time.Second, "refresh interval")
		n        = fs.Int("n", 0, "iterations before exiting (0 = until interrupted)")
		tenant   = fs.String("tenant", "", "show only this tenant's rows")
	)
	fs.Parse(args)
	statsURL := "http://" + *admin + "/stats"
	sloURL := "http://" + *admin + "/slo"

	type key struct {
		ssd    int
		tenant string
	}
	var prev *fabric.TargetStats
	for i := 0; *n == 0 || i < *n; i++ {
		if prev != nil {
			time.Sleep(*interval)
		}
		cur, err := fetchStats(statsURL)
		if err != nil {
			log.Fatal(err)
		}
		slo, err := fetchSLO(sloURL)
		if err != nil {
			log.Fatal(err)
		}
		if prev == nil {
			// The first sample only anchors the interval rates.
			prev = cur
			time.Sleep(*interval)
			cur, err = fetchStats(statsURL)
			if err != nil {
				log.Fatal(err)
			}
			if slo, err = fetchSLO(sloURL); err != nil {
				log.Fatal(err)
			}
		}
		prevBytes := map[key]int64{}
		prevOps := map[key]int64{}
		for _, s := range prev.SSDs {
			for _, t := range s.Tenants {
				prevBytes[key{t.SSD, t.Tenant}] = t.Bytes
				prevOps[key{t.SSD, t.Tenant}] = t.Ops
			}
		}
		dt := float64(cur.NowNs-prev.NowNs) / 1e9
		if dt <= 0 {
			dt = interval.Seconds()
		}
		sloRows := map[string]obs.SLOTenantReport{}
		for _, tr := range slo.Tenants {
			sloRows[tr.Tenant] = tr
		}

		fmt.Print("\033[H\033[2J") // clear, cursor home
		fmt.Printf("gimbal top — scheme=%s ssds=%d jain=%.3f interval=%.1fs\n",
			cur.Scheme, len(cur.SSDs), cur.Jain, dt)
		fmt.Printf("%-18s %4s %10s %10s %8s %8s %8s %8s\n",
			"tenant", "ssd", "MB/s", "IOPS", "credit", "met%", "burn", "errors")
		for _, s := range cur.SSDs {
			for _, t := range s.Tenants {
				if *tenant != "" && t.Tenant != *tenant {
					continue
				}
				k := key{t.SSD, t.Tenant}
				met, burn := 100.0, 0.0
				if tr, ok := sloRows[t.Tenant]; ok {
					met = tr.MetFraction * 100
					// The longest window's burn is the most stable signal.
					if len(tr.Windows) > 0 {
						burn = tr.Windows[len(tr.Windows)-1].BurnRate
					}
				}
				fmt.Printf("%-18s %4d %10.1f %10.0f %8d %8.2f %8.2f %8d\n",
					t.Tenant, t.SSD,
					float64(t.Bytes-prevBytes[k])/1e6/dt,
					float64(t.Ops-prevOps[k])/dt,
					t.Credit, met, burn, t.Errors)
			}
		}
		active := 0
		for _, ev := range slo.Events {
			if ev.Active {
				active++
			}
		}
		if len(slo.Events) > 0 {
			last := slo.Events[len(slo.Events)-1]
			fmt.Printf("events: %d correlated (%d active), last: %s %s\n",
				len(slo.Events), active, last.Kind, last.Detail)
		}
		prev = cur
	}
}
