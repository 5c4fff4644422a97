// Package fault is the deterministic fault-injection subsystem: scripted,
// seed-deterministic schedules of SSD faults (latency spikes, throughput
// brownouts, per-die stalls, full device failure) and fabric faults (frame
// drop, duplication, delay, session disconnect) that hook the simulation
// loop, the device model, and the fabric transport. Plans are data; the
// Engine arms them onto a running stack. With no plan armed the wrapped
// device is a single predictable branch and the fabric path is untouched,
// so the zero-alloc submit path keeps its guarantees.
package fault

import "fmt"

// Kind identifies one fault type.
type Kind uint8

// Fault kinds. SSD faults address a device; fabric faults address a
// session.
const (
	// SSDLatencySpike adds Extra nanoseconds to every IO's service time
	// for the window.
	SSDLatencySpike Kind = iota
	// SSDBrownout multiplies every IO's service time by Factor for the
	// window (throughput brownout: the device still works, slowly).
	SSDBrownout
	// SSDDieStall blocks one die (Die) for Dur nanoseconds.
	SSDDieStall
	// SSDFail makes the device fail every IO with a media error for the
	// window (Dur 0 = forever).
	SSDFail
	// FabricDrop drops each frame with probability Prob for the window.
	FabricDrop
	// FabricDuplicate duplicates each command frame with probability Prob
	// for the window.
	FabricDuplicate
	// FabricDelay adds Extra nanoseconds (± jittered by Extra2 via the
	// plan RNG) to each frame for the window. Reordering emerges from
	// jittered delays: two frames sent back-to-back can arrive swapped.
	FabricDelay
	// FabricDisconnect tears the session down at At (no window; the
	// disconnect is permanent).
	FabricDisconnect
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case SSDLatencySpike:
		return "ssd-latency-spike"
	case SSDBrownout:
		return "ssd-brownout"
	case SSDDieStall:
		return "ssd-die-stall"
	case SSDFail:
		return "ssd-fail"
	case FabricDrop:
		return "fabric-drop"
	case FabricDuplicate:
		return "fabric-duplicate"
	case FabricDelay:
		return "fabric-delay"
	case FabricDisconnect:
		return "fabric-disconnect"
	default:
		return fmt.Sprintf("fault(%d)", uint8(k))
	}
}

// IsFabric reports whether the kind addresses a session rather than an SSD.
func (k Kind) IsFabric() bool { return k >= FabricDrop }

// windowed reports whether the fault reverts after Dur (as opposed to
// one-shot or permanent effects).
func (k Kind) windowed() bool {
	switch k {
	case SSDDieStall, FabricDisconnect:
		return false
	case SSDFail:
		return true // Dur 0 means forever; Engine special-cases it
	default:
		return true
	}
}

// Event is one scheduled fault.
type Event struct {
	Kind Kind
	At   int64 // simulation time the fault engages
	Dur  int64 // window length (0 = permanent for SSDFail; required otherwise)

	SSD     int // target device index (SSD kinds)
	Die     int // target die (SSDDieStall)
	Session int // target session index (fabric kinds)

	Factor float64 // service-time multiplier (SSDBrownout; ≥ 1)
	Extra  int64   // added nanoseconds (SSDLatencySpike, FabricDelay)
	Extra2 int64   // delay jitter bound in nanoseconds (FabricDelay)
	Prob   float64 // per-frame probability (FabricDrop, FabricDuplicate)
}

// Plan is a scripted fault schedule. Seed feeds the per-session RNGs that
// decide probabilistic frame faults, making the whole chaos run
// deterministic.
type Plan struct {
	Seed   uint64
	Events []Event
}

// Validate checks the plan against a deployment of numSSD devices and
// numSession sessions (pass -1 to skip a dimension).
func (p *Plan) Validate(numSSD, numSession int) error {
	for i, ev := range p.Events {
		if ev.At < 0 {
			return fmt.Errorf("fault: event %d (%s): negative At %d", i, ev.Kind, ev.At)
		}
		if ev.Dur < 0 {
			return fmt.Errorf("fault: event %d (%s): negative Dur %d", i, ev.Kind, ev.Dur)
		}
		if ev.Kind.IsFabric() {
			if numSession >= 0 && (ev.Session < 0 || ev.Session >= numSession) {
				return fmt.Errorf("fault: event %d (%s): session %d out of range [0,%d)", i, ev.Kind, ev.Session, numSession)
			}
		} else if numSSD >= 0 && (ev.SSD < 0 || ev.SSD >= numSSD) {
			return fmt.Errorf("fault: event %d (%s): ssd %d out of range [0,%d)", i, ev.Kind, ev.SSD, numSSD)
		}
		switch ev.Kind {
		case SSDBrownout:
			if ev.Factor < 1 {
				return fmt.Errorf("fault: event %d: brownout factor %g < 1", i, ev.Factor)
			}
			if ev.Dur == 0 {
				return fmt.Errorf("fault: event %d: brownout needs a window", i)
			}
		case SSDLatencySpike:
			if ev.Extra <= 0 {
				return fmt.Errorf("fault: event %d: latency spike needs Extra > 0", i)
			}
			if ev.Dur == 0 {
				return fmt.Errorf("fault: event %d: latency spike needs a window", i)
			}
		case SSDDieStall:
			if ev.Dur == 0 {
				return fmt.Errorf("fault: event %d: die stall needs Dur > 0", i)
			}
		case FabricDrop, FabricDuplicate:
			if ev.Prob <= 0 || ev.Prob > 1 {
				return fmt.Errorf("fault: event %d (%s): probability %g outside (0,1]", i, ev.Kind, ev.Prob)
			}
			if ev.Dur == 0 {
				return fmt.Errorf("fault: event %d (%s): needs a window", i, ev.Kind)
			}
		case FabricDelay:
			if ev.Extra <= 0 && ev.Extra2 <= 0 {
				return fmt.Errorf("fault: event %d: delay needs Extra or Extra2 > 0", i)
			}
			if ev.Dur == 0 {
				return fmt.Errorf("fault: event %d: delay needs a window", i)
			}
		}
	}
	return nil
}
