// Package credit implements the client side of Gimbal's end-to-end
// credit-based flow control (§3.6, Algorithm 3). The target computes each
// tenant's credit (allotted virtual slots × IO count of the latest
// completed slot) and piggybacks it on every completion capsule; the client
// gates submissions so its in-flight count never exceeds the credit,
// avoiding queue buildup at the switch ingress.
package credit

// Gate is one tenant's client-side credit state. The zero value is not
// usable; use NewGate.
type Gate struct {
	total    uint32
	inflight int
}

// NewGate returns a gate seeded with an initial credit.
func NewGate(initial uint32) *Gate {
	if initial == 0 {
		initial = 1
	}
	return &Gate{total: initial}
}

// CanSubmit reports whether another IO may be sent (Algorithm 3
// nvmeof_req_submit: credit_tot > inflight).
func (g *Gate) CanSubmit() bool {
	return g.inflight < int(g.total)
}

// OnSubmit records a submission. Callers must have checked CanSubmit;
// submitting past the credit is a protocol violation the target would
// penalize, so it panics here.
func (g *Gate) OnSubmit() {
	if !g.CanSubmit() {
		panic("credit: submission past credit limit")
	}
	g.inflight++
}

// OnCompletion records a completion carrying the target's refreshed credit
// (0 means "no update" and keeps the previous value). The gate ignores the
// latency the client measured; it is in the signature so a Gate is a
// fabric.Gater.
func (g *Gate) OnCompletion(credit uint32, _ int64) {
	if g.inflight <= 0 {
		panic("credit: completion without submission")
	}
	g.inflight--
	if credit > 0 {
		g.total = credit
	}
}

// UpdateCredit applies a refreshed grant without completing an exchange.
// A reply that arrives after its deadline expired no longer completes an
// IO (the timeout already did), but it still carries the target's current
// flow-control state — discarding that would leave the client stuck on a
// stale, possibly far larger, credit during target-side degradation.
func (g *Gate) UpdateCredit(credit uint32) {
	if credit > 0 {
		g.total = credit
	}
}

// Credit returns the latest granted credit.
func (g *Gate) Credit() uint32 { return g.total }

// Inflight returns the number of outstanding IOs.
func (g *Gate) Inflight() int { return g.inflight }

// Headroom returns how many more IOs may be submitted right now; it is the
// load signal the blobstore's read load balancer compares across replicas
// (§4.3: "the one with more credits is able to absorb more requests").
func (g *Gate) Headroom() int {
	h := int(g.total) - g.inflight
	if h < 0 {
		return 0
	}
	return h
}
