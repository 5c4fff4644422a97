package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// Two /stats samples one second apart and the /slo report at the second:
// a Gimbal SSD with control-loop and device state, a second SSD with only
// device state, three tenants (t1 connected during the interval) and two
// correlated events.
const (
	statsBefore = `{"now_ns": 5000000000, "scheme": "gimbal", "jain": 0.9, "ssds": [
  {"ssd": 0, "write_cost": 3, "target_rate_mbps": 900, "completion_rate_mbps": 850,
   "read_ewma_us": 120, "write_ewma_us": 400, "queued": 7,
   "device": {"write_amp": 1.5, "gc_moved_pages": 100},
   "tenants": [{"tenant": "t0", "ssd": 0, "bytes": 100000000, "ops": 20000, "credit": 16, "futil": 0.5}]},
  {"ssd": 1, "device": {"write_amp": 1, "gc_moved_pages": 0},
   "tenants": [{"tenant": "t2", "ssd": 1, "bytes": 0, "ops": 0}]}]}`
	statsAfter = `{"now_ns": 6000000000, "scheme": "gimbal", "jain": 0.987, "ssds": [
  {"ssd": 0, "write_cost": 3.25, "target_rate_mbps": 912.4, "completion_rate_mbps": 880.6,
   "read_ewma_us": 130.2, "write_ewma_us": 410.7, "queued": 9,
   "device": {"write_amp": 1.62, "gc_moved_pages": 4321},
   "tenants": [{"tenant": "t0", "ssd": 0, "bytes": 350000000, "ops": 80000, "credit": 12, "futil": 0.91, "errors": 2},
               {"tenant": "t1", "ssd": 0, "bytes": 4096000, "ops": 1000, "credit": 30, "futil": 0.4}]},
  {"ssd": 1, "device": {"write_amp": 1.01, "gc_moved_pages": 12},
   "tenants": [{"tenant": "t2", "ssd": 1, "bytes": 65536000, "ops": 16000, "credit": 8, "futil": 1}]}]}`
	sloReport = `{"now_ns": 6000000000, "tenants": [
  {"tenant": "t0", "met_fraction": 0.9875, "windows": [{"burn_rate": 20}, {"burn_rate": 12.5}]},
  {"tenant": "t2", "met_fraction": 1, "windows": []}],
 "events": [{"kind": "ssd-brownout", "detail": "ssd=0", "active": true},
            {"kind": "degrade", "detail": "ssd=0 write_cost", "active": false}]}`
)

// liveFrame is the frame `top -n 1` prints over the documents above.
const liveFrame = `target: scheme=gimbal ssds=2 jain=0.987 (interval 1.00s)
ssd 0: write_cost=3.25 target=912MB/s completion=881MB/s ewma r/w=130/411us queued=9 WA=1.62 gc_pages=4321
ssd 1: WA=1.01 gc_pages=12
tenant              ssd       MB/s       IOPS   credit   f-util     met%     burn   errors
t0                    0      250.0      60000       12     0.91    98.75    12.50        2
t1                    0        4.1       1000       30     0.40   100.00     0.00        0
t2                    1       65.5      16000        8     1.00   100.00     0.00        0
events: 2 correlated (1 active), last: degrade ssd=0 write_cost
`

// adminStub serves statsBefore on the first /stats request, statsAfter on
// every later one, and sloReport on /slo.
func adminStub(t *testing.T) string {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/stats":
			if hits.Add(1) == 1 {
				w.Write([]byte(statsBefore))
			} else {
				w.Write([]byte(statsAfter))
			}
		case "/slo":
			w.Write([]byte(sloReport))
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(srv.Close)
	return srv.Listener.Addr().String()
}

// TestTopFrame: one frame of the live view carries every column of the
// per-SSD control-loop and device state and of the per-tenant rates,
// credit, fairness and SLO standing, and -tenant keeps the SSD lines and
// the events but only that tenant's row.
func TestTopFrame(t *testing.T) {
	var all bytes.Buffer
	if err := top(&all, adminStub(t), time.Millisecond, 1, ""); err != nil {
		t.Fatal(err)
	}
	if all.String() != liveFrame {
		t.Errorf("top -n 1:\n%s\nwant:\n%s", all.String(), liveFrame)
	}

	var one bytes.Buffer
	if err := top(&one, adminStub(t), time.Millisecond, 1, "t1"); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.SplitAfter(liveFrame, "\n") {
		if !strings.HasPrefix(line, "t0 ") && !strings.HasPrefix(line, "t2 ") {
			want = append(want, line)
		}
	}
	if got := one.String(); got != strings.Join(want, "") {
		t.Errorf("top -n 1 -tenant t1:\n%s\nwant:\n%s", got, strings.Join(want, ""))
	}
}

// TestTopFrames: a view of more than one frame clears the screen before
// each, and each frame's rates cover its own interval.
func TestTopFrames(t *testing.T) {
	var out bytes.Buffer
	if err := top(&out, adminStub(t), time.Millisecond, 2, "t0"); err != nil {
		t.Fatal(err)
	}
	frames := strings.Split(out.String(), "\033[H\033[2J")
	if len(frames) != 3 || frames[0] != "" {
		t.Fatalf("want two frames each after a clear, got %q", out.String())
	}
	// The second frame's interval has both samples at statsAfter: no
	// bytes moved, and a zero span falls back to -interval.
	if !strings.Contains(frames[2], "(interval 0.00s)") ||
		!strings.Contains(frames[2], "t0                    0        0.0          0 ") {
		t.Errorf("second frame:\n%s", frames[2])
	}
}

// TestTopDaemonDown: an admin address nobody serves is an error, not a
// panic or an empty view.
func TestTopDaemonDown(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	addr := srv.Listener.Addr().String()
	srv.Close()
	var out bytes.Buffer
	if err := top(&out, addr, time.Millisecond, 1, ""); err == nil || out.Len() != 0 {
		t.Fatalf("err %v, output %q", err, out.String())
	}
}
