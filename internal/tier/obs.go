package tier

import (
	"strconv"

	"gimbal/internal/obs"
	"gimbal/internal/ssd"
)

// AttachObs registers the tier's telemetry into reg under the ssd label
// and then attaches the wrapped chain's own telemetry (unwrapping fault
// layers and the like), so a tiered pipeline exports both tier and NAND
// instrument families. Everything is sampled at collection time from the
// stats snapshot — the tier's hot path carries no instrument pointers.
// Call once, before traffic, from scheduler context.
func (t *Device) AttachObs(reg *obs.Registry, ssdIdx int) {
	lb := obs.L("ssd", strconv.Itoa(ssdIdx))
	reg.Help("tier_hits_total", "reads served entirely from the fast tier")
	reg.Help("tier_misses_total", "reads forwarded to NAND")
	reg.Help("tier_writeback_total", "writes absorbed into the fast tier")
	reg.Help("tier_writearound_total", "writes routed around the fast tier")
	reg.Help("tier_destage_ops_total", "coalesced destage span writes issued to NAND")
	reg.Help("tier_occupancy_frac", "fraction of tier slots holding resident pages")

	reg.GaugeFunc("tier_hits_total", lb, func() float64 { return float64(t.stats.Hits) })
	reg.GaugeFunc("tier_misses_total", lb, func() float64 { return float64(t.stats.Misses) })
	reg.GaugeFunc("tier_hit_bytes_total", lb, func() float64 { return float64(t.stats.HitBytes) })
	reg.GaugeFunc("tier_writeback_total", lb, func() float64 { return float64(t.stats.WriteBacks) })
	reg.GaugeFunc("tier_writearound_total", lb, func() float64 { return float64(t.stats.WriteArounds) })
	reg.GaugeFunc("tier_absorbed_overwrites_total", lb, func() float64 { return float64(t.stats.Absorbed) })
	reg.GaugeFunc("tier_promotions_total", lb, func() float64 { return float64(t.stats.Promotions) })
	reg.GaugeFunc("tier_evictions_total", lb, func() float64 { return float64(t.stats.Evictions) })
	reg.GaugeFunc("tier_destage_ops_total", lb, func() float64 { return float64(t.stats.Destages) })
	reg.GaugeFunc("tier_destage_bytes_total", lb, func() float64 { return float64(t.stats.DestageBytes) })
	reg.GaugeFunc("tier_resident_pages", lb, func() float64 { return float64(t.table.used) })
	reg.GaugeFunc("tier_dirty_pages", lb, func() float64 { return float64(t.dirtyCount) })
	reg.GaugeFunc("tier_occupancy_frac", lb, func() float64 {
		return float64(t.table.used) / float64(t.nslots)
	})

	if a, ok := ssd.Find[ssd.ObsAttacher](t.inner); ok {
		a.AttachObs(reg, ssdIdx)
	}
}
