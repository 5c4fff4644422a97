// Multitenant: the §2.3 characterization scenario across all four
// schemes. Sixteen tenants with three distinct profiles — 4KB random
// readers, 128KB readers, and 4KB random writers — share one fragmented
// SSD, and the example reports each class's aggregate bandwidth, f-Util
// (achieved / fair share of standalone max, §5.1), and tail latency under
// ReFlex, FlashFQ, PARDA, and Gimbal.
//
//	go run ./examples/multitenant
package main

import (
	"fmt"
	"time"

	"gimbal"
)

type class struct {
	name       string
	read       float64
	ioSize, qd int
	n          int
}

func (c class) workload() []gimbal.WorkloadOption {
	return []gimbal.WorkloadOption{gimbal.WithReadFraction(c.read),
		gimbal.WithIOSize(c.ioSize), gimbal.WithQueueDepth(c.qd)}
}

func main() {
	classes := []class{
		{"4KB-read", 1, 4 << 10, 32, 8},
		{"128KB-read", 1, 128 << 10, 4, 4},
		{"4KB-write", 0, 4 << 10, 32, 4},
	}
	total := 0
	for _, c := range classes {
		total += c.n
	}

	// Standalone maxima (one tenant alone on the device) give the f-Util
	// denominators.
	standalone := map[string]float64{}
	for _, c := range classes {
		s := gimbal.NewSim(1)
		jbof, err := s.NewJBOF(gimbal.WithScheme(gimbal.SchemeVanilla), gimbal.WithCondition(gimbal.Fragmented))
		if err != nil {
			panic(err)
		}
		ssd0, err := jbof.WholeSSDVolume(0)
		if err != nil {
			panic(err)
		}
		st, err := ssd0.StartWorkload(c.workload()...)
		if err != nil {
			panic(err)
		}
		s.Run(500 * time.Millisecond)
		st.ResetStats()
		s.Run(1 * time.Second)
		standalone[c.name] = st.BandwidthMBps()
	}

	fmt.Printf("%-8s  %-11s  %10s  %7s  %12s\n", "scheme", "class", "agg MB/s", "f-Util", "p99.9")
	for _, scheme := range []gimbal.Scheme{gimbal.SchemeReflex, gimbal.SchemeFlashFQ,
		gimbal.SchemeParda, gimbal.SchemeGimbal} {
		s := gimbal.NewSim(1)
		jbof, err := s.NewJBOF(gimbal.WithScheme(scheme), gimbal.WithCondition(gimbal.Fragmented))
		if err != nil {
			panic(err)
		}
		ssd0, err := jbof.WholeSSDVolume(0)
		if err != nil {
			panic(err)
		}
		streams := map[string][]*gimbal.Stream{}
		for _, c := range classes {
			for i := 0; i < c.n; i++ {
				st, err := ssd0.StartWorkload(c.workload()...)
				if err != nil {
					panic(err)
				}
				streams[c.name] = append(streams[c.name], st)
			}
		}
		s.Run(1 * time.Second)
		for _, ss := range streams {
			for _, st := range ss {
				st.ResetStats()
			}
		}
		s.Run(2 * time.Second)

		for _, c := range classes {
			var agg, futil float64
			var worstTail time.Duration
			for _, st := range streams[c.name] {
				bw := st.BandwidthMBps()
				agg += bw
				futil += bw / (standalone[c.name] / float64(total))
				lat := st.ReadLatency()
				if c.read == 0 {
					lat = st.WriteLatency()
				}
				if lat.P999 > worstTail {
					worstTail = lat.P999
				}
			}
			futil /= float64(c.n)
			fmt.Printf("%-8s  %-11s  %10.0f  %7.2f  %12v\n",
				scheme, c.name, agg, futil, worstTail.Round(time.Microsecond))
		}
		fmt.Println()
	}
	fmt.Println("f-Util = 1.0 means the class received exactly its fair share of its own")
	fmt.Println("standalone maximum. Gimbal's per-class deviations should be the smallest,")
	fmt.Println("with bounded tails; the baselines favor one class or inflate tails.")
}
