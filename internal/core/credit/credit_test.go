package credit

import (
	"testing"
	"testing/quick"
)

func TestGateAdmitsUpToCredit(t *testing.T) {
	g := NewGate(4)
	for i := 0; i < 4; i++ {
		if !g.CanSubmit() {
			t.Fatalf("gate closed at %d of 4", i)
		}
		g.OnSubmit()
	}
	if g.CanSubmit() {
		t.Fatal("gate open past credit")
	}
	if g.Headroom() != 0 {
		t.Fatalf("headroom = %d", g.Headroom())
	}
}

func TestGateCompletionRefreshesCredit(t *testing.T) {
	g := NewGate(2)
	g.OnSubmit()
	g.OnSubmit()
	g.OnCompletion(8, 0) // target grants more
	if g.Credit() != 8 {
		t.Fatalf("credit = %d", g.Credit())
	}
	if g.Headroom() != 7 {
		t.Fatalf("headroom = %d, want 7 (8 credit - 1 inflight)", g.Headroom())
	}
	// Zero credit in a completion means "no update".
	g.OnCompletion(0, 0)
	if g.Credit() != 8 {
		t.Fatalf("credit overwritten by zero: %d", g.Credit())
	}
}

func TestGateOverSubmitPanics(t *testing.T) {
	g := NewGate(1)
	g.OnSubmit()
	defer func() {
		if recover() == nil {
			t.Fatal("submit past credit should panic")
		}
	}()
	g.OnSubmit()
}

func TestGateSpuriousCompletionPanics(t *testing.T) {
	g := NewGate(1)
	defer func() {
		if recover() == nil {
			t.Fatal("completion without submission should panic")
		}
	}()
	g.OnCompletion(1, 0)
}

func TestGateZeroInitialClampedToOne(t *testing.T) {
	g := NewGate(0)
	if !g.CanSubmit() {
		t.Fatal("gate must always admit at least one IO")
	}
}

// Property: inflight never exceeds the credit in force at submission time,
// and headroom is never negative.
func TestGateInvariantProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		g := NewGate(4)
		for _, op := range ops {
			if op%3 == 0 && g.Inflight() > 0 {
				g.OnCompletion(uint32(op%16), 0)
			} else if g.CanSubmit() {
				g.OnSubmit()
			}
			if g.Headroom() < 0 || g.Inflight() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
