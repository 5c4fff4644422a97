// Package latmon implements Gimbal's delay-based SSD congestion detector
// (§3.2, Algorithm 1 update_latency): a per-IO-type EWMA of device latency
// compared against a dynamically scaled threshold. The threshold decays
// toward the observed EWMA (so a latency rise is detected promptly) and
// jumps to the midpoint of itself and the maximum on every congestion
// signal, Reno-style.
package latmon

import "gimbal/internal/stats"

// State is the congestion state derived from one latency sample (§3.3).
type State int

// Congestion states, ordered by severity.
const (
	Underutilized State = iota
	CongestionAvoidance
	Congested
	Overloaded
)

// String names the state.
func (s State) String() string {
	switch s {
	case Underutilized:
		return "underutilized"
	case CongestionAvoidance:
		return "congestion-avoidance"
	case Congested:
		return "congested"
	case Overloaded:
		return "overloaded"
	default:
		return "state(?)"
	}
}

// Config holds the §4.2 parameters.
type Config struct {
	ThreshMin int64   // lower latency threshold, ns (250µs)
	ThreshMax int64   // upper latency threshold, ns (1500µs)
	AlphaD    float64 // EWMA weight for new samples (2⁻¹)
	AlphaT    float64 // threshold decay factor (2⁻¹)
}

// DefaultConfig returns the paper's DCT983 settings.
func DefaultConfig() Config {
	return Config{ThreshMin: 250_000, ThreshMax: 1_500_000, AlphaD: 0.5, AlphaT: 0.5}
}

// Monitor tracks one IO type (Gimbal keeps separate monitors for reads and
// writes).
type Monitor struct {
	cfg    Config
	ewma   stats.EWMA
	thresh float64
}

// New returns a monitor with the threshold starting at ThreshMax (most
// permissive; it decays toward observed latency within a few samples).
func New(cfg Config) *Monitor {
	return &Monitor{cfg: cfg, ewma: *stats.NewEWMA(cfg.AlphaD), thresh: float64(cfg.ThreshMax)}
}

// Update folds in one device latency sample (ns) and returns the resulting
// congestion state.
func (m *Monitor) Update(latency int64) State {
	ewma := m.ewma.Update(float64(latency))
	switch {
	case ewma > float64(m.cfg.ThreshMax):
		m.thresh = float64(m.cfg.ThreshMax)
		return Overloaded
	case ewma > m.thresh:
		// Congestion signal: back the threshold off toward the maximum so
		// signals keep coming while latency stays elevated.
		m.thresh = (m.thresh + float64(m.cfg.ThreshMax)) / 2
		return Congested
	case ewma > float64(m.cfg.ThreshMin):
		m.decay(ewma)
		return CongestionAvoidance
	default:
		m.decay(ewma)
		return Underutilized
	}
}

// decay moves the threshold toward the EWMA so that a future latency rise
// crosses it quickly, bounded below by ThreshMin.
func (m *Monitor) decay(ewma float64) {
	m.thresh -= m.cfg.AlphaT * (m.thresh - ewma)
	if min := float64(m.cfg.ThreshMin); m.thresh < min {
		m.thresh = min
	}
}

// EWMA returns the current latency average (ns), 0 before any sample.
func (m *Monitor) EWMA() float64 { return m.ewma.Value() }

// Initialized reports whether any sample has been observed.
func (m *Monitor) Initialized() bool { return m.ewma.Initialized() }

// Threshold returns the current dynamic threshold (ns).
func (m *Monitor) Threshold() float64 { return m.thresh }
