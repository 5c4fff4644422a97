// Package ssd implements the discrete-event NVMe SSD model used as the
// storage substrate of this reproduction: a page-mapped flash translation
// layer, NAND geometry with per-die and per-channel service timelines, a
// DRAM write buffer with an eager flush pipeline, greedy garbage collection
// with erase-before-write accounting, and pre-conditioners that place the
// device in the paper's Clean and Fragmented states.
//
// The model reproduces the SSD behaviours Gimbal's mechanisms react to
// (§2.3 of the paper): bandwidth that varies with IO size and read/write
// mix, buffered writes with a latency cliff once the write buffer is
// overrun, garbage-collection-driven throughput collapse on fragmented
// devices, and head-of-line blocking between interleaved tenants.
package ssd

import "fmt"

// Params describes the geometry and timing of a simulated SSD. The zero
// value is not usable; start from DCT983 or P3600 and override.
type Params struct {
	Name string

	// Geometry.
	Channels       int   // NAND channels
	DiesPerChannel int   // dies per channel
	PageSize       int   // logical/NAND page, bytes (4096)
	PagesPerBlock  int   // pages per erase block
	ProgramPages   int   // pages programmed per multi-plane program op
	UsableBytes    int64 // advertised (logical) capacity
	OverProvision  float64

	// Timing (nanoseconds unless noted).
	ReadLatency    int64 // tR: NAND array read per page
	ProgramLatency int64 // tProg per program op (ProgramPages pages)
	EraseLatency   int64 // tErase per block
	ChannelBps     int64 // per-channel bus bandwidth, bytes/sec
	CmdOverhead    int64 // controller overhead per host command

	// Write buffer.
	WriteBufBytes   int64
	BufWriteLatency int64 // host-visible latency of a buffered write
	BufReadLatency  int64 // read served from the write buffer

	// Limits.
	InternalQD    int // device-internal outstanding host commands
	GCTriggerFree int // per-die free-block low watermark

	// GCSlice bounds how much garbage-collection time is charged to a die
	// in one burst; the remainder becomes debt paid ahead of subsequent
	// program batches. Real FTLs interleave relocation with host IO the
	// same way — without this, a reclamation of a nearly-full victim would
	// block a die (and every read queued on it) for tens of milliseconds.
	GCSlice int64

	// ProgramReadSlice is how much of each program op's duration blocks
	// co-located reads on the die. Modern TLC dies suspend an in-progress
	// program to serve reads, so reads see bounded interference rather
	// than the full tProg; the suspended program still completes at its
	// full duration on the die's program pipeline.
	ProgramReadSlice int64
}

// DCT983 returns parameters calibrated against the Samsung DCT983 960GB
// figures quoted in the paper (§2.3, §4.2, Appendix A): ~1.6-1.7 GB/s 4KB
// random read, ~3.2 GB/s 128KB read, ~1.4 GB/s buffered sequential write,
// ~180 MB/s fragmented 4KB random write, 75-90µs unloaded 4KB read latency,
// worst-case write cost ≈ 9. Capacity is scaled to keep the page-mapping
// tables small; bandwidth and latency are capacity-independent.
func DCT983() Params {
	return Params{
		Name:             "DCT983-sim",
		Channels:         8,
		DiesPerChannel:   4,
		PageSize:         4096,
		PagesPerBlock:    256,
		ProgramPages:     8,
		UsableBytes:      8 << 30,
		OverProvision:    0.14,
		ReadLatency:      65_000,
		ProgramLatency:   700_000,
		EraseLatency:     3_000_000,
		ChannelBps:       400_000_000,
		CmdOverhead:      3_000,
		WriteBufBytes:    32 << 20,
		BufWriteLatency:  8_000,
		BufReadLatency:   6_000,
		InternalQD:       1024,
		GCTriggerFree:    8,
		GCSlice:          1_500_000,
		ProgramReadSlice: 400_000,
	}
}

// P3600 returns an Intel DC P3600 1.2TB-like parameter set for the
// generalization experiment (§5.8): 2-bit MLC with ~33.5% lower 128KB read
// bandwidth (2.1 GB/s) and ~35% higher fragmented 4KB random write
// (243 MB/s) than the DCT983.
func P3600() Params {
	p := DCT983()
	p.Name = "P3600-sim"
	p.Channels = 8
	p.DiesPerChannel = 4
	p.ChannelBps = 265_000_000 // caps 128KB read near 2.1 GB/s
	p.ReadLatency = 90_000     // MLC reads slower, higher tail
	p.ProgramLatency = 550_000 // MLC programs faster than TLC
	p.OverProvision = 0.15     // more OP: higher fragmented write bandwidth
	return p
}

// Validate checks internal consistency.
func (p Params) Validate() error {
	switch {
	case p.Channels <= 0 || p.DiesPerChannel <= 0:
		return fmt.Errorf("ssd: bad geometry %d x %d", p.Channels, p.DiesPerChannel)
	case p.PageSize <= 0 || p.PagesPerBlock <= 0 || p.ProgramPages <= 0:
		return fmt.Errorf("ssd: bad page layout")
	case !powerOfTwo(p.PagesPerBlock) || !powerOfTwo(p.ProgramPages):
		// The FTL takes a page's block and NAND row by shifting.
		return fmt.Errorf("ssd: %d pages per block, %d per program op: both must be powers of two",
			p.PagesPerBlock, p.ProgramPages)
	case p.ProgramPages > p.PagesPerBlock:
		return fmt.Errorf("ssd: program op of %d pages exceeds a %d-page block", p.ProgramPages, p.PagesPerBlock)
	case p.PagesPerBlock > 1<<15:
		// Per-block write pointers and valid counts are uint16, and a write
		// pointer equal to PagesPerBlock means full: at 1<<16 an empty
		// block would read as full.
		return fmt.Errorf("ssd: %d pages per block exceeds %d", p.PagesPerBlock, 1<<15)
	case p.UsableBytes < int64(p.PageSize):
		return fmt.Errorf("ssd: capacity smaller than a page")
	case p.OverProvision <= 0:
		return fmt.Errorf("ssd: over-provisioning must be positive")
	case p.InternalQD <= 0:
		return fmt.Errorf("ssd: internal queue depth must be positive")
	case p.GCTriggerFree < 2:
		return fmt.Errorf("ssd: GC trigger must be >= 2 free blocks")
	}
	return nil
}

func powerOfTwo(n int) bool { return n > 0 && n&(n-1) == 0 }

// Dies returns the total die count.
func (p Params) Dies() int { return p.Channels * p.DiesPerChannel }

// LogicalPages returns the number of addressable logical pages.
func (p Params) LogicalPages() int { return int(p.UsableBytes / int64(p.PageSize)) }

// BlocksPerDie returns the physical blocks per die, including
// over-provisioned space.
func (p Params) BlocksPerDie() int {
	physPages := float64(p.LogicalPages()) * (1 + p.OverProvision)
	perDie := physPages / float64(p.Dies()) / float64(p.PagesPerBlock)
	n := int(perDie)
	if float64(n) < perDie {
		n++
	}
	// Need headroom: open block, GC open block and the trigger reserve.
	if min := p.GCTriggerFree + 3; n < min {
		n = min
	}
	return n
}

// XferTime returns the channel occupancy for n bytes.
func (p Params) XferTime(n int) int64 {
	return int64(n) * 1e9 / p.ChannelBps
}

// ProgPerPage returns the amortized program time per page.
func (p Params) ProgPerPage() int64 { return p.ProgramLatency / int64(p.ProgramPages) }
