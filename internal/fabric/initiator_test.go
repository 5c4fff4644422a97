package fabric

import (
	"testing"

	"gimbal/internal/core/credit"
	"gimbal/internal/nvme"
	"gimbal/internal/sim"
)

// fuzzIO is one logical IO on FuzzSession's fake plane.
type fuzzIO struct {
	flight[*fuzzIO]
	sends []int64 // when each attempt left
	done  int     // completions the client saw
}

// lawGate is the Gimbal credit gate, keeping the latency it was last shown.
type lawGate struct {
	*credit.Gate
	lastLat int64
}

func (g *lawGate) OnCompletion(credit uint32, lat int64) {
	g.lastLat = lat
	g.Gate.OnCompletion(credit, lat)
}

// fuzzPlane is a fake transport on sim.Loop: each attempt waits on its wire
// until the fuzzer answers it, drops it or lets its deadline pass.
type fuzzPlane struct {
	t       *testing.T
	loop    *sim.Loop
	c       *initiator[*fuzzIO]
	g       *lawGate
	wire    []*fuzzIO // one entry per attempt in flight
	ios     []*fuzzIO
	aborted int64 // completed without reaching the wire
}

func (p *fuzzPlane) start(io *fuzzIO) { p.c.fly(&io.flight) }

func (p *fuzzPlane) send(f *flight[*fuzzIO]) {
	io, now := f.req, p.loop.Now()
	if p.c.closed {
		p.t.Fatalf("attempt %d sent after teardown", f.attempt)
	}
	if n := len(io.sends); n > 0 {
		// A reissue leaves a deadline plus a backoff after the attempt before.
		backoff := now - io.sends[n-1] - p.c.retry.Timeout
		if backoff <= 0 {
			p.t.Fatalf("attempt %d left %d ns after its deadline", f.attempt, backoff)
		}
		if n > 1 {
			if prev := io.sends[n-1] - io.sends[n-2] - p.c.retry.Timeout; backoff < prev {
				p.t.Fatalf("attempt %d backed off %d ns, after %d ns before it", f.attempt, backoff, prev)
			}
		}
	}
	io.sends = append(io.sends, now)
	p.wire = append(p.wire, io)
}

func (p *fuzzPlane) complete(io *fuzzIO, cpl nvme.Completion, sent bool) {
	if io.done++; io.done > 1 {
		p.t.Fatalf("an IO completed %d times", io.done)
	}
	if sent != (len(io.sends) > 0) {
		p.t.Fatalf("completed as sent=%v after %d attempts", sent, len(io.sends))
	}
	if !sent {
		if cpl.Status != nvme.StatusAborted {
			p.t.Fatalf("an IO that never left completed %v", cpl.Status)
		}
		p.aborted++
		return
	}
	// The latency the gate is shown runs from admission, so a retried IO's
	// covers every attempt, deadlines and backoffs included.
	lat := p.loop.Now() - io.sends[0]
	if p.g.lastLat != lat || lat < io.sends[len(io.sends)-1]-io.sends[0] {
		p.t.Fatalf("latency %d ns shown to the gate, %d since admission, attempts sent at %v", p.g.lastLat, lat, io.sends)
	}
}

// take removes and returns the wire entry arg names, or nil.
func (p *fuzzPlane) take(arg byte) *fuzzIO {
	if len(p.wire) == 0 {
		return nil
	}
	i := int(arg) % len(p.wire)
	io := p.wire[i]
	p.wire = append(p.wire[:i], p.wire[i+1:]...)
	return io
}

// check asserts the laws that hold between any two steps.
func (p *fuzzPlane) check() {
	c, g := p.c, p.g
	inflight := c.Submitted - c.Completed
	if int64(g.Inflight()) != inflight || g.Headroom() != max(0, int(g.Credit())-int(inflight)) {
		p.t.Fatalf("gate: credit %d, %d in flight, headroom %d; the core has %d in flight",
			g.Credit(), g.Inflight(), g.Headroom(), inflight)
	}
	if inflight > c.maxFlights {
		p.t.Fatalf("%d in flight past a table of %d", inflight, c.maxFlights)
	}
	if done := c.Completed + p.aborted; int64(len(c.pend))+inflight+done != int64(len(p.ios)) {
		p.t.Fatalf("%d IOs: %d held, %d in flight, %d done", len(p.ios), len(c.pend), inflight, done)
	}
}

// FuzzSession drives the initiator core from the fuzzer's bytes against a
// fake plane on sim.Loop: submissions, replies in any order, drops,
// duplicates, deadlines passing, late replies, credit grants and revokes,
// and teardown. After every step the gate's credit is the grant less what
// is in flight, and every IO is held, in flight or done; every IO's Done
// fires at most once, and exactly once after teardown; a retried IO's
// latency covers every attempt; each backoff is positive and none is
// shorter than the one before.
func FuzzSession(f *testing.F) {
	f.Add([]byte{4, 2, 3, 0, 3, 4, 0, 0, 0, 0, 0, 0, 1, 0, 1, 4})
	f.Add([]byte{0, 5, 1, 1, 0, 1, 0, 0, 0, 0, 3, 0, 3, 0, 3, 0, 3, 0, 1, 0, 1, 0, 4, 9, 7, 0})
	f.Add([]byte{7, 1, 2, 4, 7, 3, 0, 0, 0, 0, 0, 0, 0, 0, 5, 0, 1, 0x41, 1, 0x02, 6, 3, 3, 0, 4, 0, 2, 0, 3, 0})
	f.Add([]byte{2, 3, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 3, 0, 3, 0, 3, 0, 3, 0, 3, 0, 3, 0, 1, 0, 6, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 || len(data) > 1<<10 {
			return // keeps each run short: long inputs would spend the budget on a few
		}
		loop := sim.NewLoop()
		p := &fuzzPlane{t: t, loop: loop, g: &lawGate{Gate: credit.NewGate(1 + uint32(data[5])%8)}}
		p.c = &initiator[*fuzzIO]{
			clk:  loop,
			gate: p.g,
			retry: &RetryPolicy{
				Timeout:    (1 + int64(data[0])%16) * sim.Microsecond,
				MaxRetries: int(data[1]) % 6,
				Backoff:    (1 + int64(data[2])%4) * 100,
				BackoffCap: int64(data[3]) * 150,
			},
			tx:         p,
			maxFlights: 1 + int64(data[4])%8,
		}
		for ops := data[6:]; len(ops) >= 2; ops = ops[2:] {
			op, arg := ops[0]%8, ops[1]
			credit := uint32(arg>>2) % 12 // 0 leaves the grant alone
			switch op {
			case 0: // submit
				io := &fuzzIO{}
				io.req = io
				p.ios = append(p.ios, io)
				p.c.submit(io)
			case 1: // an attempt's reply
				if io := p.take(arg); io != nil {
					st := nvme.StatusOK
					if arg&1 != 0 {
						st = nvme.StatusDeviceFailed
					}
					p.c.reply(&io.flight, nvme.Completion{Status: st, Credit: credit})
				}
			case 2: // a lost frame: only a deadline recovers it
				p.take(arg)
			case 3: // time passes to the next deadline or backoff
				loop.Step()
			case 4: // a late reply, if the IO arg names is done
				if len(p.ios) == 0 {
					break
				}
				if io := p.ios[int(arg)%len(p.ios)]; io.done > 0 && len(io.sends) > 0 {
					before := p.c.LateReplies
					p.c.reply(&io.flight, nvme.Completion{Credit: credit})
					if p.c.LateReplies != before+1 || (credit > 0 && p.g.Credit() != credit) {
						t.Fatalf("late reply granting %d: %d late replies after %d, gate credit %d",
							credit, p.c.LateReplies, before, p.g.Credit())
					}
				}
			case 5: // a duplicated frame
				if len(p.wire) > 0 {
					p.wire = append(p.wire, p.wire[int(arg)%len(p.wire)])
				}
			case 6: // the target grants or revokes credit on an unplaceable reply
				p.c.reply(nil, nvme.Completion{Credit: credit})
			case 7:
				p.c.teardown()
			}
			p.check()
		}
		p.c.teardown()
		p.wire = nil
		loop.Run()
		p.check()
		for i, io := range p.ios {
			if io.done != 1 {
				t.Fatalf("IO %d of %d completed %d times after teardown", i, len(p.ios), io.done)
			}
		}
	})
}
