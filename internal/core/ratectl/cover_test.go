package ratectl

import (
	"math"
	"testing"
)

// coverWaitOracle is coverWait by the divisions alone: the share and the
// target rate divide the shortfall, and the refill is checked when the
// quotient sits within 1e-6 of a whole nanosecond. coverWait must give its
// answer on every input while dividing only where its estimate is too
// close to call.
func coverWaitOracle(e *Engine, isWrite bool, d, need, writeCost float64) int64 {
	if !e.cfg.SingleBucket {
		if writeCost < 1 {
			writeCost = 1
		}
		share, other := writeCost/(1+writeCost), e.writeTok
		if isWrite {
			share, other = 1/(1+writeCost), e.readTok
		}
		d = min(d/share, d+max(float64(e.cfg.BucketMax)-other, 0))
	}
	if e.targetRate <= 0 {
		return int64(d/e.cfg.MinRate*1e9) + 1
	}
	q := d / e.targetRate * 1e9
	wait := int64(q) + 1
	if float64(wait)-q > 1e-6 {
		return wait
	}
	for ; ; wait++ {
		read, write := e.refilled(wait, writeCost)
		level := read
		if isWrite && !e.cfg.SingleBucket {
			level = write
		}
		if level >= need {
			return wait
		}
	}
}

// aimedLevel is the level of the class's bucket, the other bucket empty,
// whose shortfall for an IO of size bytes takes ns nanoseconds of refill at
// rate and write cost wc, as near as float64 gets: the shortfall is
// ns·rate/1e9 bytes of refill at the class's share.
func aimedLevel(isWrite bool, size int, wc, rate, ns float64) float64 {
	share := wc / (1 + wc)
	if isWrite {
		share = 1 / (1 + wc)
	}
	return float64(size) - ns*rate/1e9*share
}

// FuzzCoverWait: for bucket levels, a write cost, a target rate and an IO
// size the fuzzer picks, and the levels a few ulps either side of the
// class's, Admit's wait is the division formula's (coverWaitOracle), and
// Refill at lastRefill+wait then admits the IO. The engine's cached
// shares and rate reciprocal are primed for another cost and rate first,
// so a stale cache shows. The seeds aim the shortfall at whole
// nanoseconds, and at 5e-7 ns under them, where the estimate and the
// quotient can truncate apart.
func FuzzCoverWait(f *testing.F) {
	cfg := DefaultConfig()
	for _, isWrite := range []bool{false, true} {
		for _, wc := range []float64{1, 1.5, 2.5, 3, 7.3, 9} {
			for _, rate := range []float64{cfg.MinRate, 99.9e6, 400e6, 1.2345e9, cfg.MaxRate} {
				for _, ns := range []float64{1, 3, 10240, 12345, 55555, 99999, 10240 - 5e-7, 55555 - 5e-7} {
					own := aimedLevel(isWrite, 4096, wc, rate, ns)
					if isWrite {
						f.Add(isWrite, false, 0.0, own, wc, rate, uint32(4096))
					} else {
						f.Add(isWrite, false, own, 0.0, wc, rate, uint32(4096))
					}
				}
			}
		}
	}
	f.Add(false, true, -1000.25, 0.0, 2.5, 400e6, uint32(128<<10))
	f.Add(true, false, 262143.9, 1000.5, 9.0, 1.2345e9, uint32(1<<20))
	f.Fuzz(func(t *testing.T, isWrite, single bool, readTok, writeTok, wc, rate float64, size uint32) {
		full := float64(cfg.BucketMax)
		for _, v := range []float64{readTok, writeTok, wc, rate} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		if readTok < -4*full || readTok > full || writeTok < -4*full || writeTok > full ||
			wc < 0 || wc > 1e3 || rate < cfg.MinRate || rate > cfg.MaxRate || size == 0 || size > 4<<20 {
			t.Skip()
		}
		c := cfg
		c.SingleBucket = single
		const t0 = 123_456_789
		e := New(c, t0)
		e.targetRate = rate / 2
		e.coverWait(!isWrite, 1000, 1000, wc+1) // primes the caches for another cost and rate
		e.targetRate = rate
		base := readTok
		if isWrite && !single {
			base = writeTok
		}
		for ulps := -8; ulps <= 8; ulps++ {
			own := base
			for i := 0; i < ulps; i++ {
				own = math.Nextafter(own, math.Inf(1))
			}
			for i := 0; i > ulps; i-- {
				own = math.Nextafter(own, math.Inf(-1))
			}
			e.readTok, e.writeTok = own, writeTok
			if isWrite && !single {
				e.readTok, e.writeTok = readTok, own
			}
			tok, need := e.bucket(isWrite, int(size))
			if *tok >= need {
				continue
			}
			want := coverWaitOracle(e, isWrite, need-*tok, need, wc)
			wait, ok := e.Admit(isWrite, int(size), wc) // a refused IO takes nothing
			if ok || wait != want {
				t.Fatalf("write=%v single=%v rate %v cost %v size %d, buckets %v/%v: Admit = %d, %v; the divisions give %d",
					isWrite, single, rate, wc, size, e.readTok, e.writeTok, wait, ok, want)
			}
			probe := *e
			probe.Refill(t0+wait, wc)
			if _, ok := probe.Admit(isWrite, int(size), wc); !ok {
				t.Fatalf("write=%v single=%v rate %v cost %v size %d, buckets %v/%v: refused %d ns after Admit said it would pass",
					isWrite, single, rate, wc, size, e.readTok, e.writeTok, wait)
			}
		}
	})
}
