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
type CPUModel struct {
	cores        []int64
	SubmitCost   int64 // per-IO ingress processing, ns
	CompleteCost int64 // per-IO egress processing, ns
	ExtraPerIO   int64 // added processing cost knob (Fig 16)
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

// ChargeIO reserves one IO event of base cost plus the size-proportional
// data-path cost on the least-loaded core.
func (c *CPUModel) ChargeIO(now, base int64, size int) int64 {
	if c == nil {
		return now
	}
	return c.Charge(now, base+int64(size)*c.BytePs/1000)
}

// Charge reserves one event of the given cost on the least-loaded core and
// returns when the processing finishes.
func (c *CPUModel) Charge(now, cost int64) int64 {
	if c == nil {
		return now
	}
	cost += c.ExtraPerIO
	best := 0
	for i := 1; i < len(c.cores); i++ {
		if c.cores[i] < c.cores[best] {
			best = i
		}
	}
	start := now
	if c.cores[best] > start {
		start = c.cores[best]
	}
	c.cores[best] = start + cost
	return c.cores[best]
}
