// Command gimbald is a live NVMe-oF-style storage target over TCP: a
// simulated JBOF (wall-clock SSD models) fronted by the Gimbal storage
// switch — or any of the baseline schemes — serving the capsule protocol
// of internal/fabric on a listening socket.
//
//	gimbald -listen 127.0.0.1:4420 -ssds 4 -scheme gimbal -cond fragmented
//
// The live datapath is sharded into per-SSD reactors: -reactors picks the
// shard count (below 1 = auto, min(GOMAXPROCS, ssds)), and SSD i runs on
// shard i%R. See DESIGN.md §4.1 "live reactor datapath".
//
// A second listener (-admin, default 127.0.0.1:9420) serves the
// observability endpoint:
//
//	/metrics        Prometheus text format (control loop, SSD, fabric)
//	/stats          JSON snapshot: per-tenant bandwidth, credits, write cost
//	/trace          captured per-IO lifecycle spans, JSONL; filter with
//	                ?tenant= ?phase= ?n=
//	/slo            per-tenant SLO attainment, burn rates, correlated events
//	/reactors       shard → SSD mapping and per-reactor capsule counts
//	/debug/pprof/   the standard Go profiler
//
// The span tracer captures every IO slower than -trace-slow plus every
// -trace-nth IO (-trace-nth 1 captures all); -trace 0, or both triggers
// off, attaches no tracer.
// The SLO engine is armed with -slo-target/-slo-goal.
//
// Drive it with cmd/gimbalcli; `gimbalcli stats` renders /stats and
// `gimbalcli top` joins /stats with /slo in a live view.
//
// A scripted SSD fault schedule can be armed at startup with -faults; see
// parseFaultPlan for the JSON shape. -recovery (default on) enables the
// Gimbal switch's fail-fast latch and graceful degradation so the target
// survives the injected faults the way §3.7 describes.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"gimbal/internal/core"
	"gimbal/internal/fabric"
	"gimbal/internal/fault"
	"gimbal/internal/obs"
	"gimbal/internal/sim"
	"gimbal/internal/ssd"
	"gimbal/internal/volume"
)

func main() {
	var (
		listen    = flag.String("listen", "127.0.0.1:4420", "listen address")
		admin     = flag.String("admin", "127.0.0.1:9420", "observability endpoint address (empty disables)")
		ssds      = flag.Int("ssds", 4, "number of simulated SSDs")
		reactors  = flag.Int("reactors", -1, "per-SSD reactor shards: N >= 1 explicit (capped at -ssds), anything lower auto (min(GOMAXPROCS, ssds))")
		scheme    = flag.String("scheme", "gimbal", "scheduler: gimbal|vanilla|reflex|flashfq|parda")
		cond      = flag.String("cond", "clean", "precondition: fresh|clean|fragmented")
		capacity  = flag.Int64("capacity", 2<<30, "per-SSD usable bytes")
		traceCap  = flag.Int("trace", 8192, "per-IO trace ring capacity (0 disables tracing)")
		traceSlow = flag.Duration("trace-slow", time.Millisecond, "always capture IOs at least this slow (0 disables)")
		traceNth  = flag.Int("trace-nth", 64, "capture every Nth IO regardless of latency (1 captures all, 0 disables)")
		sloTarget = flag.Duration("slo-target", 0, "per-tenant latency objective (0 disables the SLO engine)")
		sloGoal   = flag.Float64("slo-goal", 0.999, "fraction of IOs that must meet the latency objective")
		drain     = flag.Duration("drain", 3*time.Second, "graceful shutdown drain timeout")
		faults    = flag.String("faults", "", "JSON fault plan armed at startup (SSD faults only)")
		recovery  = flag.Bool("recovery", true, "enable fail-fast + graceful degradation on the gimbal scheme")
		qosFlag   = flag.String("qos-classes", "", "named QoS classes for the volume control plane and scheduler (e.g. gold=8,silver=4,besteffort=1); empty = flat single-class DRR")
		token     = flag.String("admin-token", "", "bearer token required on mutating volume endpoints (empty leaves them open)")
	)
	flag.Parse()
	checkUsage := func(err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "gimbald: %v\n", err)
			flag.Usage()
			os.Exit(2)
		}
	}
	params, err := deviceParams(*ssds, *capacity)
	checkUsage(err)
	slo, err := sloObjective(*sloTarget, *sloGoal)
	checkUsage(err)
	tcfg, condition, classes, err := targetPolicy(*scheme, *cond, *qosFlag)
	checkUsage(err)
	if *recovery {
		tcfg.Gimbal.Recovery = core.DefaultRecoveryConfig()
	}

	// Datapath layout: the target is sharded into R per-SSD reactors (SSD i
	// on shard i%R) with the lock-free ring datapath of
	// internal/fabric/reactor.go.
	R := *reactors
	if R < 1 {
		R = runtime.GOMAXPROCS(0)
	}
	if R > *ssds {
		R = *ssds
	}
	shards := sim.NewRealShards(R)
	clks := make([]sim.Scheduler, *ssds)
	for i := range clks {
		clks[i] = shards.Shard(i % R)
	}
	log.Printf("preconditioning %d x %s (%s)...", *ssds, params.Name, condition)
	st, err := fabric.BuildStack(clks, sim.NewRNG(uint64(os.Getpid())),
		fabric.StackConfig{Params: params, Cond: condition, Target: tcfg})
	if err != nil {
		log.Fatal(err)
	}
	target := st.Target
	// Telemetry: the span tracer, the per-tenant SLO engine, and the shared
	// event log the fault engine and the switch's recovery transitions both
	// feed.
	//
	// The hub registry keeps only atomic transport gauges (no GatherLock
	// needed) and each reactor gets its own shard registry gathered under
	// that shard's lock; /metrics joins them through an obs.Group, so a
	// scrape serializes with at most one reactor at a time.
	reg := obs.NewRegistry()
	shardRegs := make([]*obs.Registry, R)
	members := []*obs.Registry{reg}
	for j := range shardRegs {
		shardRegs[j] = obs.NewRegistry()
		shardRegs[j].GatherLock = shards.Shard(j)
		members = append(members, shardRegs[j])
	}
	group := obs.NewGroup(members...)
	hub := obs.NewHub(reg)
	if tc := tracerConfig(*traceCap, *traceSlow, *traceNth); tc != nil {
		hub.Tracer = obs.NewTracer(*tc)
	}
	hub.Events = obs.NewEventLog(1024)
	if slo != nil {
		hub.SLO = obs.NewSLOEngine(*slo)
		hub.SLO.SetEventLog(hub.Events)
	}

	if *faults != "" {
		plan, err := loadFaultPlan(*faults)
		if err != nil {
			log.Fatalf("fault plan: %v", err)
		}
		// An engine schedules injections on one scheduler, and a device may
		// only be mutated from its own shard's context — so the plan is
		// partitioned per shard (event for SSD i → engine on shard i%R).
		armed := 0
		for j := 0; j < R; j++ {
			sub := &fault.Plan{Seed: plan.Seed}
			for _, ev := range plan.Events {
				if ev.SSD%R == j {
					sub.Events = append(sub.Events, ev)
				}
			}
			if len(sub.Events) == 0 {
				continue
			}
			eng := st.Engine(shards.Shard(j))
			eng.OnEvent = func(ev fault.Event, active bool) {
				hub.Events.Append(shards.Now(), ev.Kind.String(), fmt.Sprintf("ssd=%d", ev.SSD), active)
			}
			if err := eng.Arm(sub); err != nil {
				log.Fatalf("fault plan: %v", err)
			}
			armed += eng.Armed
		}
		log.Printf("armed %d fault events from %s", armed, *faults)
	}

	pregs := make([]*obs.Registry, *ssds)
	for i := range pregs {
		pregs[i] = shardRegs[i%R]
	}
	shards.Lock()
	target.AttachObsSharded(hub, pregs)
	shards.Unlock()
	ring := hub.Ring()

	srv, err := fabric.ServeTCPReactors(shards, target, *listen)
	if err != nil {
		log.Fatal(err)
	}
	srv.AttachObs(hub, shardRegs)

	var adminSrv *http.Server
	var vols *volumeServer
	if *admin != "" {
		mux := fabric.AdminMuxMetrics(shards, target, hub, group)
		vols = newVolumeServer(classes, *ssds, *capacity, *token)
		vols.register(mux)
		mux.HandleFunc("/reactors", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(srv.ReactorStats())
		})
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		adminSrv = &http.Server{Addr: *admin, Handler: mux}
		go func() {
			if err := adminSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("admin endpoint: %v", err)
			}
		}()
	}

	fmt.Printf("gimbald: %d x %s SSDs (%s) behind %q scheme, listening on %s (%d reactor shards)\n",
		*ssds, condition, byteSize(*capacity), tcfg.Scheme, srv.Addr(), R)
	if *admin != "" {
		fmt.Printf("gimbald: observability on http://%s (/metrics /stats /trace /slo /volumes /snapshots /debug/pprof)\n", *admin)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("shutting down: draining in-flight IO (up to %s)", *drain)
	// Provisioning closes first: in-flight IO may still drain, but no new
	// volumes appear on a daemon that is going away.
	if vols != nil {
		vols.Drain()
	}
	if adminSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		_ = adminSrv.Shutdown(ctx)
		cancel()
	}
	if err := srv.Shutdown(*drain); err != nil {
		log.Printf("listener close: %v", err)
	}

	// Final telemetry snapshot so a scrape gap around shutdown loses
	// nothing: per-tenant totals and the registry, one JSON line each.
	shards.Lock()
	stats := target.StatsSnapshot()
	shards.Unlock()
	if b, err := json.Marshal(stats); err == nil {
		log.Printf("final stats: %s", b)
	}
	if b, err := json.Marshal(group.Snapshot()); err == nil {
		log.Printf("final metrics: %s", b)
	}
	if ring != nil {
		log.Printf("traced %d IOs (last %d retained)", ring.Total(), ring.Len())
	}
	shards.Stop()
	log.Println("shutdown complete")
}

// deviceParams is the SSD model gimbald builds -ssds of, with -capacity
// usable bytes each. It rejects the device flags the stack cannot be built
// with, before anything is preconditioned: no SSD, or a capacity the model
// refuses (below one page).
func deviceParams(ssds int, capacity int64) (ssd.Params, error) {
	p := ssd.DCT983()
	p.UsableBytes = capacity
	if ssds < 1 {
		return p, fmt.Errorf("-ssds %d: need at least one SSD", ssds)
	}
	if err := p.Validate(); err != nil {
		return p, fmt.Errorf("-capacity %d: %v", capacity, err)
	}
	return p, nil
}

// targetPolicy is the target configuration, precondition and volume QoS
// menu that -scheme, -cond and -qos-classes name, or an error naming the
// flag it cannot parse. -qos-classes is the one policy knob: it names the
// volume QoS menu AND compiles the scheduler's class weights; empty keeps
// the default menu over a flat single-class DRR.
func targetPolicy(scheme, cond, qos string) (fabric.TargetConfig, ssd.Condition, *volume.ClassSet, error) {
	sch, err := fabric.ParseScheme(scheme)
	if err != nil {
		return fabric.TargetConfig{}, 0, nil, fmt.Errorf("-scheme: %v", err)
	}
	condition, err := ssd.ParseCondition(cond)
	if err != nil {
		return fabric.TargetConfig{}, 0, nil, fmt.Errorf("-cond: %v", err)
	}
	tcfg := fabric.DefaultTargetConfig(sch)
	classes := volume.DefaultClasses()
	if qos != "" {
		if classes, err = volume.ParseClasses(qos); err != nil {
			return fabric.TargetConfig{}, 0, nil, fmt.Errorf("-qos-classes: %v", err)
		}
		tcfg.Gimbal.Sched.ClassWeights = classes.Compile().ClassWeights
	}
	return tcfg, condition, classes, nil
}

// sloObjective is the objective -slo-target and -slo-goal arm the SLO
// engine with, or nil when -slo-target leaves it off. It rejects a goal
// that is not a fraction strictly between 0 and 1, which the engine would
// otherwise replace with its default without a word.
func sloObjective(target time.Duration, goal float64) (*obs.SLO, error) {
	if !(goal > 0 && goal < 1) {
		return nil, fmt.Errorf("-slo-goal %v: need a fraction between 0 and 1, both excluded", goal)
	}
	if target <= 0 {
		return nil, nil
	}
	return &obs.SLO{LatencyTargetNs: int64(target), LatencyGoal: goal}, nil
}

// tracerConfig is the span tracer the -trace, -trace-slow and -trace-nth
// flags ask for, or nil when they ask for one that would capture nothing.
func tracerConfig(capacity int, slow time.Duration, nth int) *obs.TracerConfig {
	if capacity <= 0 || (slow <= 0 && nth <= 0) {
		return nil
	}
	return &obs.TracerConfig{Capacity: capacity, SlowNs: int64(slow), SampleEvery: nth}
}

// loadFaultPlan reads a JSON fault schedule (see parseFaultPlan).
func loadFaultPlan(path string) (*fault.Plan, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseFaultPlan(b)
}

// parseFaultPlan parses a JSON fault schedule:
//
//	{"events": [
//	  {"kind": "ssd-brownout",      "at": "10s", "dur": "30s", "ssd": 0, "factor": 8},
//	  {"kind": "ssd-latency-spike", "at": "1m",  "dur": "10s", "ssd": 1, "extra": "2ms"},
//	  {"kind": "ssd-die-stall",     "at": "2m",  "dur": "5s",  "ssd": 0, "die": 3},
//	  {"kind": "ssd-fail",          "at": "3m",  "dur": "20s", "ssd": 2}
//	]}
//
// Kinds are spelled as fault.Kind prints them. Times are relative to
// process start. Fabric fault kinds are rejected: live sessions appear
// dynamically with TCP connections, so they cannot be addressed by index
// from a startup file. Use the simulation API (gimbal.FaultPlan) or
// gimbalbench's chaos experiments for those. The plan is validated without
// a deployment (Plan.Validate(-1, -1)); Engine.Arm checks SSD indices.
func parseFaultPlan(b []byte) (*fault.Plan, error) {
	var doc struct {
		Seed   uint64 `json:"seed"`
		Events []struct {
			Kind   string  `json:"kind"`
			At     string  `json:"at"`
			Dur    string  `json:"dur"`
			SSD    int     `json:"ssd"`
			Die    int     `json:"die"`
			Factor float64 `json:"factor"`
			Extra  string  `json:"extra"`
			Prob   float64 `json:"prob"`
		} `json:"events"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, err
	}
	dur := func(s string) (int64, error) {
		if s == "" {
			return 0, nil
		}
		d, err := time.ParseDuration(s)
		return int64(d), err
	}
	plan := &fault.Plan{Seed: doc.Seed}
	for i, ev := range doc.Events {
		k := fault.SSDLatencySpike
		for !k.IsFabric() && k.String() != ev.Kind {
			k++
		}
		if k.IsFabric() {
			return nil, fmt.Errorf("event %d: unsupported kind %q (SSD faults only)", i, ev.Kind)
		}
		at, err := dur(ev.At)
		if err != nil {
			return nil, fmt.Errorf("event %d: at: %v", i, err)
		}
		window, err := dur(ev.Dur)
		if err != nil {
			return nil, fmt.Errorf("event %d: dur: %v", i, err)
		}
		extra, err := dur(ev.Extra)
		if err != nil {
			return nil, fmt.Errorf("event %d: extra: %v", i, err)
		}
		plan.Events = append(plan.Events, fault.Event{
			Kind: k, At: at, Dur: window, SSD: ev.SSD, Die: ev.Die,
			Factor: ev.Factor, Extra: extra, Prob: ev.Prob,
		})
	}
	if err := plan.Validate(-1, -1); err != nil {
		return nil, err
	}
	return plan, nil
}

func byteSize(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%dGiB", n>>30)
	case n >= 1<<20:
		return fmt.Sprintf("%dMiB", n>>20)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
