package gimbal_test

import (
	"fmt"
	"time"

	"gimbal"
)

// Example mirrors the package-doc quickstart: a reader and a writer share
// one fragmented SSD behind the Gimbal switch, and both make progress.
func Example() {
	s := gimbal.NewSim(42)
	jbof, err := s.NewJBOF(
		gimbal.WithScheme(gimbal.SchemeGimbal),
		gimbal.WithCondition(gimbal.Fragmented),
		gimbal.WithCapacity(1<<30),
	)
	if err != nil {
		panic(err)
	}
	ssd0, err := jbof.WholeSSDVolume(0)
	if err != nil {
		panic(err)
	}
	reader, err := ssd0.StartWorkload(gimbal.WithReadFraction(1),
		gimbal.WithIOSize(4096), gimbal.WithQueueDepth(32))
	if err != nil {
		panic(err)
	}
	writer, err := ssd0.StartWorkload(gimbal.WithReadFraction(0),
		gimbal.WithIOSize(4096), gimbal.WithQueueDepth(32))
	if err != nil {
		panic(err)
	}
	s.Run(500 * time.Millisecond)
	fmt.Println("reader moving data:", reader.BandwidthMBps() > 0)
	fmt.Println("writer moving data:", writer.BandwidthMBps() > 0)
	// Output:
	// reader moving data: true
	// writer moving data: true
}

// Example_faults scripts a brownout against a running JBOF and reads the
// switch's graceful-degradation signal out of the virtual view.
func Example_faults() {
	s := gimbal.NewSim(7)
	jbof, err := s.NewJBOF(gimbal.WithCondition(gimbal.Clean), gimbal.WithCapacity(1<<30))
	if err != nil {
		panic(err)
	}
	ssd0, err := jbof.WholeSSDVolume(0)
	if err != nil {
		panic(err)
	}
	st, err := ssd0.StartWorkload(gimbal.WithReadFraction(1), gimbal.WithQueueDepth(8),
		gimbal.WithRetry(gimbal.DefaultRetryPolicy()))
	if err != nil {
		panic(err)
	}
	err = jbof.InjectFaults(gimbal.FaultPlan{Seed: 7, Events: []gimbal.FaultEvent{
		{Kind: gimbal.SSDBrownout, At: 100 * time.Millisecond,
			Duration: 200 * time.Millisecond, SSD: 0, Factor: 200},
	}})
	if err != nil {
		panic(err)
	}
	s.Run(200 * time.Millisecond) // into the brownout window
	v, err := ssd0.View()
	if err != nil {
		panic(err)
	}
	fmt.Println("degraded during brownout:", v.Degraded)
	fmt.Println("stream retried:", st.Retries() > 0)
	// Output:
	// degraded during brownout: true
	// stream retried: true
}
