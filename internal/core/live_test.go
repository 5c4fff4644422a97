package core

import (
	"testing"
	"time"

	"gimbal/internal/sim"
	"gimbal/internal/ssd"
)

// TestLiveSetupIsSingleThreaded: a live stack is assembled with no lock held
// — what fabric.BuildStack and gimbald do — and that is safe because nothing
// scheduled on a wall-clock shard runs before the shard's first entry. The
// second switch is built, and recovery enabled on the first, more than two
// cost periods after the first armed its cost tick: with a runtime timer per
// event that tick fired meanwhile on a goroutine of its own, racing New's
// reads of the clock and EnableRecovery's write (go test -race).
func TestLiveSetupIsSingleThreaded(t *testing.T) {
	shard := sim.NewRealShards(1).Shard(0)
	a := New(shard, ssd.NewNull(shard, 1<<30, 0), DefaultConfig())
	time.Sleep(25 * time.Millisecond)
	b := New(shard, ssd.NewNull(shard, 1<<30, 0), DefaultConfig())
	a.EnableRecovery(DefaultRecoveryConfig())
	b.EnableRecovery(DefaultRecoveryConfig())
	if reads, pending := shard.ClockReads(), shard.Pending(); reads != 0 || pending != 2 {
		t.Fatalf("before the first Lock: %d entries into the shard (clock reads), %d events pending; want 0 and the two cost ticks", reads, pending)
	}
	// The first entry fires what is overdue, a's tick at least; each re-arms.
	shard.Lock()
	reads, pending := shard.ClockReads(), shard.Pending()
	shard.Unlock()
	if reads < 1 || reads > 2 || pending != 2 {
		t.Errorf("first Lock: %d clock reads, %d events pending; want one read per overdue cost tick and both ticks re-armed", reads, pending)
	}
}
