package main

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"gimbal/internal/fault"
)

// docPlan is parseFaultPlan's doc-comment example.
const docPlan = `{"events": [
  {"kind": "ssd-brownout",      "at": "10s", "dur": "30s", "ssd": 0, "factor": 8},
  {"kind": "ssd-latency-spike", "at": "1m",  "dur": "10s", "ssd": 1, "extra": "2ms"},
  {"kind": "ssd-die-stall",     "at": "2m",  "dur": "5s",  "ssd": 0, "die": 3},
  {"kind": "ssd-fail",          "at": "3m",  "dur": "20s", "ssd": 2}
]}`

// kindPlan is a valid one-event plan for SSD kind k.
func kindPlan(k fault.Kind) string {
	return fmt.Sprintf(`{"seed": 7, "events": [{"kind": %q, "at": "1s", "dur": "2s", "ssd": 1, "die": 2, "factor": 4, "extra": "1ms"}]}`, k)
}

// badPlans are rejected, each with the error it must name.
var badPlans = []struct{ in, err string }{
	{`{"events": [{"kind": "fabric-drop", "at": "1s", "dur": "1s", "prob": 0.5}]}`, `unsupported kind "fabric-drop" (SSD faults only)`},
	{`{"events": [{"kind": "ssd-tier-bypass", "at": "1s", "dur": "1s", "ssd": 0}]}`, `unsupported kind "ssd-tier-bypass"`},
	{`{"events": [{"kind": "ssd-fail", "at": "soon"}]}`, "event 0: at:"},
	{docPlan[:len(docPlan)/2], "unexpected end of JSON input"},
	{`{"events": [{"kind": "ssd-brownout", "dur": "1s", "factor": 0.5}]}`, "brownout factor 0.5 < 1"},
}

func TestParseFaultPlan(t *testing.T) {
	plan, err := parseFaultPlan([]byte(docPlan))
	if err != nil {
		t.Fatal(err)
	}
	want := []fault.Event{
		{Kind: fault.SSDBrownout, At: int64(10 * time.Second), Dur: int64(30 * time.Second), Factor: 8},
		{Kind: fault.SSDLatencySpike, At: int64(time.Minute), Dur: int64(10 * time.Second), SSD: 1, Extra: int64(2 * time.Millisecond)},
		{Kind: fault.SSDDieStall, At: int64(2 * time.Minute), Dur: int64(5 * time.Second), Die: 3},
		{Kind: fault.SSDFail, At: int64(3 * time.Minute), Dur: int64(20 * time.Second), SSD: 2},
	}
	if len(plan.Events) != len(want) {
		t.Fatalf("events = %+v, want %+v", plan.Events, want)
	}
	for i := range want {
		if plan.Events[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, plan.Events[i], want[i])
		}
	}
	for k := fault.SSDLatencySpike; !k.IsFabric(); k++ {
		if plan, err := parseFaultPlan([]byte(kindPlan(k))); err != nil || plan.Events[0].Kind != k {
			t.Errorf("%s: plan %+v, err %v", k, plan, err)
		}
	}
	for _, bad := range badPlans {
		if _, err := parseFaultPlan([]byte(bad.in)); err == nil || !strings.Contains(err.Error(), bad.err) {
			t.Errorf("%s: err = %v, want %q", bad.in, err, bad.err)
		}
	}
}

// FuzzParseFaultPlan: the parser reads a file an operator wrote. It must
// never panic, and every plan it accepts is SSD-only and one the fault
// engine accepts before it knows the deployment. Seeds: the doc example,
// every SSD kind, and the rejected plans (a fabric kind, a kind that no
// longer exists, a bad duration, truncated JSON, an invalid factor).
func FuzzParseFaultPlan(f *testing.F) {
	f.Add([]byte(docPlan))
	for k := fault.SSDLatencySpike; !k.IsFabric(); k++ {
		f.Add([]byte(kindPlan(k)))
	}
	for _, bad := range badPlans {
		f.Add([]byte(bad.in))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		plan, err := parseFaultPlan(b)
		if err != nil {
			return
		}
		if err := plan.Validate(-1, -1); err != nil {
			t.Fatalf("accepted plan fails Validate: %v\n%s", err, b)
		}
		for i, ev := range plan.Events {
			if ev.Kind.IsFabric() {
				t.Fatalf("event %d: accepted fabric kind %s", i, ev.Kind)
			}
		}
	})
}
