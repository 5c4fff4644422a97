package fabric

import "gimbal/internal/sim"

// NetConfig models the RDMA fabric of §2.1 for the loopback transport: a
// fixed one-way latency plus serialization on a full-duplex link. Command
// and completion capsules are small; write data rides the client→target
// direction (RDMA_READ by the target) and read data the target→client
// direction (RDMA_WRITE).
type NetConfig struct {
	OneWayLatency int64 // ns
	LinkBps       int64 // per-direction bandwidth
	CapsuleBytes  int   // modeled size of a bare capsule
}

// DefaultNet models the testbed's 100Gbps RoCE fabric.
func DefaultNet() NetConfig {
	return NetConfig{
		OneWayLatency: 5 * sim.Microsecond,
		LinkBps:       12_500_000_000, // 100 Gbps
		CapsuleBytes:  64,
	}
}

// link is one direction of a client↔target pair.
type link struct {
	cfg  NetConfig
	busy int64
}

// send returns the delivery time of n payload bytes entering the link at
// `now`: serialization (FIFO on the link) plus propagation.
func (l *link) send(now int64, n int) int64 {
	ser := int64(n+l.cfg.CapsuleBytes) * 1e9 / l.cfg.LinkBps
	start := now
	if l.busy > start {
		start = l.busy
	}
	l.busy = start + ser
	return l.busy + l.cfg.OneWayLatency
}

// CPUModel models the SmartNIC's wimpy cores (§2.4): every command
// submission and completion consumes core time, bounding the target's
// IOPS. Cores are a shared pool; each event is served by the
// least-loaded core (the SPDK reactor assignment in the real system).
// SubmitCost and CompleteCost are the vanilla target's; a scheme pays them
// scaled by its published overhead (schemeCost).
type CPUModel struct {
	cores        []int64
	SubmitCost   int64 // per-IO ingress processing, ns
	CompleteCost int64 // per-IO egress processing, ns
	ExtraPerIO   int64 // added processing cost, charged once per IO at ingress (Fig 16)
	BytePs       int64 // data-path cost, picoseconds per byte (Fig 2's large-IO penalty)
}

// NewCPU returns a pool of n cores with the given per-event costs.
func NewCPU(n int, submit, complete int64) *CPUModel {
	if n < 1 {
		n = 1
	}
	return &CPUModel{cores: make([]int64, n), SubmitCost: submit, CompleteCost: complete}
}

// ServerCPU models a Xeon core pipeline (~1.3µs per IO round trip: two
// cores drive ~1.5M IOPS, Fig 3).
func ServerCPU(cores int) *CPUModel {
	c := NewCPU(cores, 400, 250)
	c.BytePs = 50 // fast DMA path: ~6.5µs added on a 128KB transfer
	return c
}

// SmartNICCPU models the 3.0GHz ARM A72 (three cores for the same load,
// Fig 3; ~950K IOPS on one core, Table 1b; 20%+ latency adds at 128KB+,
// Fig 2).
func SmartNICCPU(cores int) *CPUModel {
	c := NewCPU(cores, 650, 400)
	c.BytePs = 300 // wimpy memory path: ~39µs added on a 128KB transfer
	return c
}

// schemeCost is each scheme's submit and complete path cost relative to the
// vanilla target's, in thousandths. These are published numbers, not knobs:
//   - Gimbal: paper Table 1a, 16×QD32 column: +42.9% submission and +47.1%
//     completion cycles over the vanilla SPDK target → 1429/1471. That pair
//     and not QD1's (+62.5%/+37.5%) because the model's per-IO cost shows
//     only when the cores are saturated, which is the deep-queue,
//     many-tenant regime; at QD1 a core idles between IOs. Table 1b's max
//     IOPS (−12.4%) is measured in that regime too.
//   - vanilla: 1, Table 1's baseline. PARDA: 1, its windows run on the
//     initiators and its target is vanilla.
//   - ReFlex, FlashFQ: 1. No per-IO cycle count of either scheduler on this
//     path (an SPDK target on a SmartNIC core) is published, so they pay
//     vanilla's cost: a lower bound, which favours them over Gimbal.
var schemeCost = [...]struct{ submit, complete int64 }{
	SchemeVanilla: {1000, 1000},
	SchemeGimbal:  {1429, 1471},
	SchemeReflex:  {1000, 1000},
	SchemeFlashFQ: {1000, 1000},
	SchemeParda:   {1000, 1000},
}

// SchemeCosts returns the submit and complete path costs, ns, an IO of
// scheme s is charged (rounded to the nanosecond); the data path and
// ExtraPerIO come on top.
func (c *CPUModel) SchemeCosts(s Scheme) (submit, complete int64) {
	m := schemeCost[s]
	return (c.SubmitCost*m.submit + 500) / 1000, (c.CompleteCost*m.complete + 500) / 1000
}

// chargeIO reserves one of an IO's two events on the least-loaded core and
// returns when the processing finishes: the scheme's submit or complete cost
// plus the data path, and at submission ExtraPerIO, which an IO pays once.
func (c *CPUModel) chargeIO(now int64, s Scheme, size int, submit bool) int64 {
	sub, cost := c.SchemeCosts(s)
	if submit {
		cost = sub + c.ExtraPerIO
	}
	cost += int64(size) * c.BytePs / 1000
	best := 0
	for i := 1; i < len(c.cores); i++ {
		if c.cores[i] < c.cores[best] {
			best = i
		}
	}
	start := max(now, c.cores[best])
	c.cores[best] = start + cost
	return c.cores[best]
}
