package fabric

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"

	"gimbal/internal/obs"
	"gimbal/internal/sim"
	"gimbal/internal/ssd"
	"gimbal/internal/stats"
)

// TenantStats is one tenant's row in a /stats snapshot. MBps is the mean
// bandwidth since the tenant registered; clients wanting interval rates
// (gimbalcli stats) diff Bytes across two snapshots. FUtil is the live
// fairness proxy: achieved bandwidth over an equal share of the SSD's
// current aggregate, among the tenants still connected (1.0 = exactly fair,
// 0 for a departed tenant; the offline harness computes the paper's
// standalone-referenced f-Util instead).
type TenantStats struct {
	Tenant string  `json:"tenant"`
	SSD    int     `json:"ssd"`
	Bytes  int64   `json:"bytes"`
	Ops    int64   `json:"ops"`
	Errors int64   `json:"errors"`
	Credit uint32  `json:"credit"`
	MBps   float64 `json:"mbps"`
	FUtil  float64 `json:"futil"`
}

// DeviceStatsJSON is the SSD-internal block of a /stats snapshot.
type DeviceStatsJSON struct {
	ReadBytes    int64   `json:"read_bytes"`
	WriteBytes   int64   `json:"write_bytes"`
	WriteAmp     float64 `json:"write_amp"`
	GCMovedPages uint64  `json:"gc_moved_pages"`
	Erases       uint64  `json:"erases"`
	FreeBlocks   int     `json:"free_blocks"`
	BufOccupancy int64   `json:"buf_occupancy"`
	QueuedHost   int     `json:"queued_host"`
}

// SSDStats is one pipeline's block in a /stats snapshot. The Gimbal
// control-loop fields are zero for baseline schemes.
type SSDStats struct {
	SSD                int              `json:"ssd"`
	WriteCost          float64          `json:"write_cost,omitempty"`
	TargetRateMBps     float64          `json:"target_rate_mbps,omitempty"`
	CompletionRateMBps float64          `json:"completion_rate_mbps,omitempty"`
	ReadEWMAUs         float64          `json:"read_ewma_us,omitempty"`
	WriteEWMAUs        float64          `json:"write_ewma_us,omitempty"`
	Submits            int64            `json:"submits,omitempty"`
	Completions        int64            `json:"completions,omitempty"`
	ActiveTenants      int              `json:"active_tenants,omitempty"`
	DeferredTenants    int              `json:"deferred_tenants,omitempty"`
	Queued             int              `json:"queued,omitempty"`
	Device             *DeviceStatsJSON `json:"device,omitempty"`
	Tenants            []TenantStats    `json:"tenants"`
}

// TargetStats is the full /stats snapshot of one storage node.
type TargetStats struct {
	NowNs  int64      `json:"now_ns"`
	Scheme string     `json:"scheme"`
	Jain   float64    `json:"jain"`
	SSDs   []SSDStats `json:"ssds"`
}

// StatsSnapshot builds the live telemetry snapshot. Call in scheduler
// context (the admin handler takes every shard lock).
func (t *Target) StatsSnapshot() *TargetStats {
	now := t.clk.Now()
	out := &TargetStats{NowNs: now, Scheme: t.cfg.Scheme.String()}
	var allBW []float64
	for i, p := range t.pipes {
		s := SSDStats{SSD: i, Tenants: []TenantStats{}}
		if g := p.Gimbal; g != nil {
			v := g.View()
			s.WriteCost = v.WriteCost
			s.TargetRateMBps = v.TargetRateBps / 1e6
			s.CompletionRateMBps = v.CompletionRateBps / 1e6
			s.ReadEWMAUs = v.ReadEWMAUs
			s.WriteEWMAUs = v.WriteEWMAUs
			st := g.Stats()
			s.Submits, s.Completions = st.Submits, st.Completions
			s.ActiveTenants = g.DRR().ActiveTenants()
			s.DeferredTenants = g.DRR().DeferredTenants()
			s.Queued = g.DRR().Queued()
		}
		if dev, ok := ssd.Find[*ssd.SSD](p.Dev); ok {
			st := dev.Stats()
			s.Device = &DeviceStatsJSON{
				ReadBytes:    st.ReadBytes,
				WriteBytes:   st.WriteBytes,
				WriteAmp:     st.WriteAmp,
				GCMovedPages: st.GCMovedPages,
				Erases:       st.Erases,
				FreeBlocks:   st.FreeBlocks,
				BufOccupancy: st.BufOccupancy,
				QueuedHost:   st.QueuedHost,
			}
		}
		// Fairness is judged among the tenants still connected: a departed
		// tenant keeps its row and totals but takes no share.
		var liveBW []float64
		for _, rec := range p.order {
			row := TenantStats{Tenant: rec.tenant.Name, SSD: i, Bytes: rec.bytes, Ops: rec.ops, Errors: rec.errors}
			if dt := now - rec.since; dt > 0 {
				row.MBps = float64(row.Bytes) / 1e6 / (float64(dt) / 1e9)
			}
			if g := p.Gimbal; g != nil {
				row.Credit = g.Credit(rec.tenant)
			}
			if rec.live {
				liveBW = append(liveBW, row.MBps)
			}
			s.Tenants = append(s.Tenants, row)
		}
		var total float64
		for _, bw := range liveBW {
			total += bw
		}
		for j, rec := range p.order {
			if rec.live && total > 0 {
				s.Tenants[j].FUtil = s.Tenants[j].MBps / (total / float64(len(liveBW)))
			}
		}
		allBW = append(allBW, liveBW...)
		out.SSDs = append(out.SSDs, s)
	}
	out.Jain = stats.JainIndex(allBW)
	return out
}

// MetricsWriter renders Prometheus text exposition: a single
// obs.Registry, or an obs.Group joining per-reactor registry shards.
type MetricsWriter interface {
	WritePrometheus(w io.Writer) error
}

// AdminMuxMetrics builds the observability endpoint of a live target:
//
//	GET /metrics  Prometheus text exposition from mw (gimbald joins the
//	              per-reactor registries at gather time, each under its own
//	              shard lock — a scrape never stops the whole datapath)
//	GET /stats    JSON TargetStats snapshot (under every shard lock)
//	GET /trace    captured per-IO lifecycle spans as JSONL; filters:
//	              ?tenant=<name>   only that tenant's spans
//	              ?phase=<name>    only spans whose dominant phase matches
//	                               (fabric|queue|vslot|pacing|device|gc|complete)
//	              ?n=<limit>       at most n lines, newest winning
//	GET /slo      JSON SLOReport: per-tenant objectives, multi-window burn
//	              rates, and correlated degrade/fault events
//
// The caller mounts pprof and serves the mux (cmd/gimbald does both).
func AdminMuxMetrics(rs *sim.RealShards, target *Target, hub *obs.Hub, mw MetricsWriter) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = mw.WritePrometheus(w)
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		rs.Lock()
		snap := target.StatsSnapshot()
		rs.Unlock()
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(snap)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		ring := hub.Ring()
		if ring == nil {
			return
		}
		q := r.URL.Query()
		tenant := q.Get("tenant")
		phase := q.Get("phase")
		if phase != "" {
			if _, ok := (&obs.IOTrace{}).Phase(phase); !ok {
				http.Error(w, "unknown phase "+phase, http.StatusBadRequest)
				return
			}
		}
		limit := 0
		if s := q.Get("n"); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil || n < 0 {
				http.Error(w, "bad n", http.StatusBadRequest)
				return
			}
			limit = n
		}
		var keep func(*obs.IOTrace) bool
		if tenant != "" || phase != "" {
			keep = func(t *obs.IOTrace) bool {
				if tenant != "" && t.Tenant != tenant {
					return false
				}
				if phase != "" && t.DominantPhase() != phase {
					return false
				}
				return true
			}
		}
		_ = ring.WriteJSONLFunc(w, keep, limit)
	})
	mux.HandleFunc("/slo", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if hub.SLO == nil {
			_, _ = w.Write([]byte("{}\n"))
			return
		}
		rs.Lock()
		rep := hub.SLO.Report(rs.Now())
		rs.Unlock()
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(rep)
	})
	return mux
}
