// Package parda reimplements PARDA [Gulati et al., FAST'09] as ported in
// §5.1 of the Gimbal paper: fully client-side flow control. Each host
// observes the end-to-end average latency of its own IOs and adjusts a
// per-host issue window with the PARDA control law
//
//	w(t+1) = (1-γ)·w(t) + γ·(L/L_avg·w(t) + β)
//
// where L is the latency threshold and β the host's share weight. The
// target performs no scheduling (vanilla FIFO). Because the only feedback
// is the client-observed RTT — which for small fragmented-SSD writes is
// not correlated with true IO cost — PARDA keeps average latency low but
// cannot find the device's capacity or allocate it fairly (§5.2, §5.3).
package parda

import "gimbal/internal/stats"

// Config holds the control-law parameters.
type Config struct {
	LatThreshold int64   // L: target end-to-end average latency, ns
	Gamma        float64 // γ: smoothing
	Beta         float64 // β: per-host share weight
	MaxWindow    float64
	EWMAAlpha    float64 // latency averaging
	UpdateEvery  int     // completions per window update (estimation interval)
}

// DefaultConfig returns settings tuned for NVMe-oF latencies (PARDA's
// original disk-era thresholds were tens of milliseconds and its
// estimation interval seconds; scaled here like the paper's port, the
// control loop still adapts orders of magnitude more slowly than the
// device's microsecond dynamics — the mismatch §5.9 calls out).
func DefaultConfig() Config {
	return Config{
		LatThreshold: 1_500_000, // 1.5ms
		Gamma:        0.5,
		Beta:         2,
		MaxWindow:    256,
		EWMAAlpha:    0.25,
		UpdateEvery:  64, // a coarse estimation interval, as in PARDA
	}
}

// Window is the client-side PARDA controller for one host/tenant. It gates
// submissions exactly like a credit gate: the transport session consults
// CanSubmit before issuing.
type Window struct {
	cfg      Config
	w        float64
	inflight int
	lat      *stats.EWMA
	sinceAdj int
}

// NewWindow returns a controller starting at window 4.
func NewWindow(cfg Config) *Window {
	return &Window{cfg: cfg, w: 4, lat: stats.NewEWMA(cfg.EWMAAlpha)}
}

// CanSubmit reports whether another IO fits in the current window.
func (p *Window) CanSubmit() bool { return p.inflight < int(p.w) }

// OnSubmit records an issue.
func (p *Window) OnSubmit() { p.inflight++ }

// OnCompletion folds in one end-to-end latency observation and
// periodically applies the control law. PARDA reads no target feedback, so
// the completion's credit is ignored; it is in the signature so a Window
// is a fabric.Gater.
func (p *Window) OnCompletion(_ uint32, latency int64) {
	p.inflight--
	avg := p.lat.Update(float64(latency))
	p.sinceAdj++
	if p.sinceAdj < p.cfg.UpdateEvery {
		return
	}
	p.sinceAdj = 0
	if avg <= 0 {
		return
	}
	ratio := float64(p.cfg.LatThreshold) / avg
	p.w = (1-p.cfg.Gamma)*p.w + p.cfg.Gamma*(ratio*p.w+p.cfg.Beta)
	if p.w < 1 {
		p.w = 1
	}
	if p.w > p.cfg.MaxWindow {
		p.w = p.cfg.MaxWindow
	}
}

// Window returns the current window size.
func (p *Window) Window() float64 { return p.w }

// Inflight returns the outstanding IO count.
func (p *Window) Inflight() int { return p.inflight }

// Headroom returns how many more IOs the current window admits.
func (p *Window) Headroom() int {
	if h := int(p.w) - p.inflight; h > 0 {
		return h
	}
	return 0
}
