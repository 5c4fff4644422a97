package parda

import "testing"

func step(w *Window, lat int64, n int) {
	for i := 0; i < n; i++ {
		if w.CanSubmit() {
			w.OnSubmit()
		}
		if w.Inflight() > 0 {
			w.OnCompletion(0, lat)
		}
	}
}

func TestWindowGrowsWhenFast(t *testing.T) {
	w := NewWindow(DefaultConfig())
	start := w.Window()
	step(w, 100_000, 1000) // far below the latency threshold
	if w.Window() <= start {
		t.Fatalf("window did not grow: %v -> %v", start, w.Window())
	}
}

func TestWindowShrinksWhenSlow(t *testing.T) {
	cfg := DefaultConfig()
	w := NewWindow(cfg)
	step(w, 100_000, 2000)
	high := w.Window()
	step(w, 20_000_000, 2000) // far above threshold
	if w.Window() >= high {
		t.Fatalf("window did not shrink: %v -> %v", high, w.Window())
	}
}

func TestWindowBounds(t *testing.T) {
	cfg := DefaultConfig()
	w := NewWindow(cfg)
	step(w, 1, 100_000)
	if w.Window() > cfg.MaxWindow {
		t.Fatalf("window exceeded max: %v", w.Window())
	}
	step(w, 1_000_000_000, 100_000)
	if w.Window() < 1 {
		t.Fatalf("window below 1: %v", w.Window())
	}
}

func TestGateSemantics(t *testing.T) {
	w := NewWindow(DefaultConfig()) // starts at window 4
	n := 0
	for w.CanSubmit() {
		w.OnSubmit()
		n++
		if n > 1000 {
			t.Fatal("gate never closed")
		}
	}
	if n != 4 {
		t.Fatalf("initial window admitted %d, want 4", n)
	}
	w.OnCompletion(0, 100_000)
	if !w.CanSubmit() {
		t.Fatal("completion should reopen the gate")
	}
}

func TestEquilibriumNearThreshold(t *testing.T) {
	// The control law converges where observed latency ≈ threshold: with
	// latency exactly at L, w(t+1) = w(t) + γβ (slow drift up to the cap);
	// slightly above L it shrinks. Just check directional stability.
	cfg := DefaultConfig()
	w := NewWindow(cfg)
	step(w, cfg.LatThreshold*2, 5000)
	low := w.Window()
	step(w, cfg.LatThreshold/2, 5000)
	if w.Window() <= low {
		t.Fatalf("window not responsive around the threshold")
	}
}
