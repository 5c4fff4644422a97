package bench

import (
	"fmt"

	"gimbal/internal/core"
	"gimbal/internal/fabric"
	"gimbal/internal/fault"
	"gimbal/internal/obs"
	"gimbal/internal/sim"
	"gimbal/internal/ssd"
)

func init() {
	register("chaos-brownout", "Isolation under a single-SSD brownout: healthy-tenant retention per scheme", runChaosBrownoutExp)
	register("chaos-fabric", "Recovery under fabric faults: drop, delay+reorder, duplicate windows", runChaosFabricExp)
	register("chaos-disconnect", "Session teardown: credit reclaim and survivor bandwidth", runChaosDisconnectExp)
}

// chaosRetry is the initiator recovery policy the chaos experiments arm:
// the default with the backoff capped at 2ms instead of 4ms. The cap keeps
// an IO's whole retry budget — six 3ms deadlines plus 0.25+0.5+1+2+2ms of
// backoff, 23.75ms — under the brownout run's 25ms goodput sample (a
// quarter of the Full chaos unit), so a doomed IO gives up within one
// sample; at 4ms the budget is 25.75ms.
func chaosRetry() fabric.RetryPolicy {
	rp := fabric.DefaultRetryPolicy()
	rp.BackoffCap = 2 * sim.Millisecond
	return rp
}

// chaosSchemes is the comparison set for the chaos matrix: the paper's
// schemes plus the unprotected vanilla target.
var chaosSchemes = []fabric.Scheme{
	fabric.SchemeVanilla, fabric.SchemeReflex, fabric.SchemeFlashFQ,
	fabric.SchemeParda, fabric.SchemeGimbal,
}

// chaosGimbalCfg arms the Gimbal switch's failure handling (fail-fast +
// graceful degradation) — the recovery half of the tentpole.
func chaosGimbalCfg(tc *fabric.TargetConfig) {
	tc.Gimbal.Recovery = core.DefaultRecoveryConfig()
}

// chaosConfig is the chaos family's rig: clean SSDs behind one SmartNIC
// core, the initiator's retry policy armed, recovery armed on a Gimbal
// target, and one seed for the run and its fault plan.
func chaosConfig(scheme fabric.Scheme, seed uint64, nssd int, specs []Spec, warm, dur int64, events []fault.Event) FioConfig {
	retry := chaosRetry()
	cfg := FioConfig{Scheme: scheme, Cond: ssd.Clean, NumSSD: nssd, Specs: specs,
		Warm: warm, Dur: dur, Seed: seed, CPU: fabric.SmartNICCPU(1), Retry: &retry,
		Faults: &fault.Plan{Seed: seed, Events: events}}
	if scheme == fabric.SchemeGimbal {
		cfg.GimbalCfg = chaosGimbalCfg
	}
	return cfg
}

// --- chaos-brownout -------------------------------------------------------

// chaosBrownoutRow is one scheme's outcome under the brownout timeline,
// shared between the experiment and the acceptance test.
type chaosBrownoutRow struct {
	Scheme       fabric.Scheme
	PreMBps      float64 // healthy tenants, before the fault
	FaultMBps    float64 // healthy tenants, during the fault
	PostMBps     float64 // healthy tenants, after the fault
	Retention    float64 // FaultMBps / PreMBps
	RecoverMs    float64 // time after fault end to regain 95% of pre; -1 = never
	FaultedMBps  float64 // faulted tenants' goodput during the fault
	Retries      int64   // faulted sessions
	Timeouts     int64   // faulted sessions
	DegradeEnter bool    // gimbal only: did the switch degrade
}

// brownoutTimeline is the geometry of the chaos-brownout run (absolute
// times): Specs[:healthy] ride SSD0, the rest ride the faulted SSD1.
type brownoutTimeline struct {
	warm, faultAt, faultEnd int64
	healthy                 int
}

// chaosBrownoutConfig is the brownout timeline for one scheme at chaos
// unit u: two SSDs, CPU-bound healthy readers on SSD0, rate-limited QD64
// readers on SSD1; SSD1 browns out for four units mid-run. Healthy tenants
// share only the SmartNIC core with the sick SSD — isolation means their
// bandwidth should not follow it down. Gimbal runs with recovery armed.
func chaosBrownoutConfig(u int64, scheme fabric.Scheme) (FioConfig, brownoutTimeline) {
	tl := brownoutTimeline{warm: 3 * u, faultAt: 6 * u, faultEnd: 10 * u, healthy: 3}

	// Offered load on SSD1 (4 × 16 MB/s = 16K IOPS) fits the clean device
	// easily but exceeds its browned-out capability, so the queue collapses
	// and — without target-side degradation — attempts start blowing the
	// 3ms deadline and multiplying.
	faulted := stream("faulted", 1, 4096, 64)
	faulted.RateLimitBps = 16e6
	specs := append(repeat(stream("healthy", 1, 4096, 16), tl.healthy), repeat(faulted, 4)...)
	for i := tl.healthy; i < len(specs); i++ {
		specs[i].SSD = 1
	}
	// ×200 pins SSD1's service latency in the multi-millisecond range —
	// past the 3ms initiator deadline — so every admitted IO is doomed
	// and each one costs up to 1+MaxRetries wire attempts. The question
	// the experiment asks is who contains that multiplication.
	return chaosConfig(scheme, 11, 2, specs, tl.warm, 11*u, []fault.Event{
		{Kind: fault.SSDBrownout, At: tl.faultAt, Dur: tl.faultEnd - tl.faultAt, SSD: 1, Factor: 200},
	}), tl
}

// runChaosBrownout executes the brownout timeline for one scheme, sampling
// healthy and faulted goodput every quarter unit.
func runChaosBrownout(cx *Ctx, scheme fabric.Scheme) chaosBrownoutRow {
	u := cx.scale().chaosUnit
	cfg, tl := chaosBrownoutConfig(u, scheme)
	faultAt, faultEnd, healthy := tl.faultAt, tl.faultEnd, tl.healthy
	period := u / 4
	// Group 0 is the healthy tenants, group 1 the faulted ones.
	run, samples := cx.executeSampled(cfg, period, healthy, len(cfg.Specs))

	row := chaosBrownoutRow{Scheme: scheme, RecoverMs: -1}
	var preN, faultN, postN int
	var lastH, lastF int64
	type interval struct {
		start, end int64
		h, f       float64
	}
	var ivs []interval
	for _, s := range samples {
		iv := interval{start: s.at - period, end: s.at, h: mbps(s.bytes[0]-lastH, period), f: mbps(s.bytes[1]-lastF, period)}
		lastH, lastF = s.bytes[0], s.bytes[1]
		ivs = append(ivs, iv)
		switch {
		case iv.end <= faultAt:
			row.PreMBps += iv.h
			preN++
		case iv.start >= faultAt && iv.end <= faultEnd:
			row.FaultMBps += iv.h
			row.FaultedMBps += iv.f
			faultN++
		case iv.start >= faultEnd:
			row.PostMBps += iv.h
			postN++
		}
	}
	if preN > 0 {
		row.PreMBps /= float64(preN)
	}
	if faultN > 0 {
		row.FaultMBps /= float64(faultN)
		row.FaultedMBps /= float64(faultN)
	}
	if postN > 0 {
		row.PostMBps /= float64(postN)
	}
	if row.PreMBps > 0 {
		row.Retention = row.FaultMBps / row.PreMBps
	}
	for _, iv := range ivs {
		if iv.start >= faultEnd && iv.h >= 0.95*row.PreMBps {
			row.RecoverMs = float64(iv.end-faultEnd) / 1e6
			break
		}
	}
	for i := healthy; i < len(run.Sessions); i++ {
		row.Retries += run.Sessions[i].Retries
		row.Timeouts += run.Sessions[i].Timeouts
	}
	if scheme == fabric.SchemeGimbal {
		// The window has ended and the switch may have recovered by the end
		// of the run; the enter counter in the registry is authoritative.
		row.DegradeEnter = obs.SumMetric(run.Reg.Snapshot(), "gimbal_degrade_enters_total") > 0
	}
	return row
}

func runChaosBrownoutExp(cx *Ctx) []*Result {
	res := &Result{
		ID:    "chaos-brownout",
		Title: "SSD1 browns out ×200 for 4 units; healthy tenants ride SSD0 behind the same core",
		Header: []string{"scheme", "pre_MBps", "fault_MBps", "post_MBps",
			"retention_pct", "recover_ms", "faulted_MBps", "retries", "timeouts"},
	}
	for _, scheme := range chaosSchemes {
		row := runChaosBrownout(cx, scheme)
		rec := "never"
		if row.RecoverMs >= 0 {
			rec = f0(row.RecoverMs)
		}
		res.AddRow(scheme.String(), f0(row.PreMBps), f0(row.FaultMBps), f0(row.PostMBps),
			f1(row.Retention*100), rec, f1(row.FaultedMBps),
			fmt.Sprint(row.Retries), fmt.Sprint(row.Timeouts))
	}
	res.Notef("target shape: gimbal healthy retention ≥ 90%% (credit clamp + flow control " +
		"contain the retry storm); vanilla bleeds healthy bandwidth into timed-out reissues")
	return []*Result{res}
}

// --- chaos-fabric ---------------------------------------------------------

func runChaosFabricExp(cx *Ctx) []*Result {
	u := cx.scale().chaosUnit
	res := &Result{
		ID:    "chaos-fabric",
		Title: "Fabric fault windows (drop 2%, delay 50µs±200µs, duplicate 1%) across schemes",
		Header: []string{"scheme", "ok_ios", "err_ios", "retries", "timeouts",
			"late_replies", "drops", "dups", "agg_MBps"},
	}
	for _, scheme := range chaosSchemes {
		nSess := 4
		var events []fault.Event
		for sidx := 0; sidx < nSess; sidx++ {
			events = append(events,
				fault.Event{Kind: fault.FabricDrop, At: 2 * u, Dur: 3 * u, Session: sidx, Prob: 0.02},
				fault.Event{Kind: fault.FabricDelay, At: 5 * u, Dur: 3 * u, Session: sidx,
					Extra: 50 * sim.Microsecond, Extra2: 200 * sim.Microsecond},
				fault.Event{Kind: fault.FabricDuplicate, At: 8 * u, Dur: 3 * u, Session: sidx, Prob: 0.01},
			)
		}
		run := cx.Execute(chaosConfig(scheme, 13, 1, repeat(stream("rd4k", 1, 4096, 16), nSess), 1*u, 11*u, events))
		var ok, errs, retries, timeouts, late, drops, dups int64
		for _, w := range run.Workers {
			ok += w.OKIOs()
			errs += w.Errors()
		}
		for _, s := range run.Sessions {
			retries += s.Retries
			timeouts += s.Timeouts
			late += s.LateReplies
			if lf := s.LinkFaults(); lf != nil {
				drops += lf.Drops
				dups += lf.Dups
			}
		}
		res.AddRow(scheme.String(), fmt.Sprint(ok), fmt.Sprint(errs),
			fmt.Sprint(retries), fmt.Sprint(timeouts), fmt.Sprint(late),
			fmt.Sprint(drops), fmt.Sprint(dups), f0(run.AggBandwidth(nil)))
	}
	res.Notef("every dropped frame must be recovered by reissue (err_ios ≈ 0 at 2%% loss); " +
		"duplicates are absorbed by first-reply-wins dedup (late_replies > 0, no double completion)")
	return []*Result{res}
}

// --- chaos-disconnect -----------------------------------------------------

func runChaosDisconnectExp(cx *Ctx) []*Result {
	u := cx.scale().chaosUnit
	res := &Result{
		ID:    "chaos-disconnect",
		Title: "Tenant 2 disconnects mid-run: credit reclaim and survivor pickup (gimbal)",
		Header: []string{"scheme", "dead_credit_before", "dead_credit_after",
			"survivor_pre_MBps", "survivor_post_MBps", "aborted_ios", "reclaimed"},
	}
	warm := 2 * u
	discAt := warm + 4*u
	dur := 10 * u

	var creditBefore, creditAfter uint32
	var preBytes, preAt int64
	reader := stream("rd128k", 1, 128<<10, 8)
	reader.MaxConsecutiveErrs = 32 // the disconnected worker must give up
	cfg := chaosConfig(fabric.SchemeGimbal, 17, 1, repeat(reader, 3), warm, dur, []fault.Event{
		{Kind: fault.FabricDisconnect, At: discAt, Session: 2},
	})
	cfg.Events = []TimedEvent{
		{At: discAt - 1, Do: func(r *FioRun) {
			sw := r.Target.Pipeline(0).Gimbal
			creditBefore = sw.Credit(r.Workers[2].Tenant())
			preBytes = r.Workers[0].Meter.Bytes() + r.Workers[1].Meter.Bytes()
			preAt = r.Loop.Now()
		}},
		{At: discAt + u, Do: func(r *FioRun) {
			sw := r.Target.Pipeline(0).Gimbal
			creditAfter = sw.Credit(r.Workers[2].Tenant())
		}},
	}
	// One group: the two survivors.
	run, samples := cx.executeSampled(cfg, u/2, 2)

	// Survivor bandwidth before vs after the teardown: post runs from the
	// first sample whose interval starts at or after the disconnect.
	preMBps := mbps(preBytes, preAt-warm)
	post := 0
	for samples[post].at-u/2 < discAt {
		post++
	}
	end := samples[len(samples)-1]
	postMBps := mbps(end.bytes[0]-samples[post].bytes[0], end.at-(samples[post].at-u/2))

	aborted := run.Sessions[2].Errors
	reclaimed := "no"
	if creditAfter == 0 && creditBefore > 0 {
		reclaimed = "yes"
	}
	res.AddRow("gimbal", fmt.Sprint(creditBefore), fmt.Sprint(creditAfter),
		f0(preMBps), f0(postMBps), fmt.Sprint(aborted), reclaimed)
	res.Notef("the dead tenant's vslot credits return to the pool at teardown; " +
		"survivors' allotments double and their aggregate bandwidth holds or rises")
	return []*Result{res}
}
