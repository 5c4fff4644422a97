package sim

import (
	"testing"
	"time"
)

// The two benchmarks use only what every RealScheduler has had (Lock,
// Unlock, After), so the file can be dropped onto an older commit to take
// its numbers. Run them at -cpu 1,2: one P is the perf ledger's live setting.

// BenchmarkRealTimerFire is the idle shard: arm one event, park until the
// bell has fired it. The hand-off between two goroutines dominates the time;
// the allocation columns are the point.
func BenchmarkRealTimerFire(b *testing.B) {
	s := NewRealShards(1).Shard(0)
	done := make(chan struct{}, 1)
	fn := func() { done <- struct{}{} }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Lock()
		s.After(0, fn)
		s.Unlock()
		<-done
	}
}

// BenchmarkRealTimerBusyShard is the busy shard: the goroutine that armed 32
// events 20 to 36 µs out keeps entering the shard, as a reactor with commands
// to submit does, until all have fired. An op is one event, so on time is
// about 36 µs ÷ 32 ≈ 1.1 µs.
func BenchmarkRealTimerBusyShard(b *testing.B) {
	s := NewRealShards(1).Shard(0)
	const batch = 32
	fired := 0 // under the shard lock
	fn := func() { fired++ }
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += batch {
		s.Lock()
		fired = 0
		for i := 0; i < batch; i++ {
			s.After(int64(20*time.Microsecond)+int64(i)*500, fn)
		}
		s.Unlock()
		for done := false; !done; {
			s.Lock()
			done = fired == batch
			s.Unlock()
		}
	}
}
