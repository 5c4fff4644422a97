package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"syscall"
	"time"
)

// yardstick is a fixed piece of work that shares no code with the
// repository, timed just before every measured batch. The reference box is a
// shared 2-vCPU VM whose speed moves by 10–30% for minutes at a time (other
// tenants of the host: clock, cache and memory contention), so a wall-clock
// cost measured on it is the code's cost times the box's slowdown at that
// moment. Dividing each batch by the slowdown the yardstick saw next to it
// takes the second factor out: over ten runs in a slow spell the median batch
// of sim-null-4k spread 28% raw and 2–4% against the yardstick, the live
// plane's 11% raw and 3%. ROADMAP item 1c asks for exactly this ("a ratio,
// not an absolute"); the vanilla twin cannot be the yardstick for absolute
// costs because it shares the event loop, workers and fabric with the rig
// under test, so their gains would cancel.
//
// The work is a discrete-event loop in miniature, run twice: over a 256 KiB
// table that stays in L2 (compute-bound, follows the clock) and over a 64 MiB
// table that misses cache and TLB on every access (memory-bound, follows
// contention for the host's memory system). The slowdown is the geometric
// mean of the two kernels' times over their reference times.
type yardstick struct {
	heap  []yardEvent
	small []byte
	big   []byte // mapped outside the Go heap, so it does not stretch the GC's pacing
	x     uint64
	ticks []float64 // every slowdown measured, in order
}

type yardEvent struct {
	at   int64
	slot uint32
}

const (
	yardHeap        = 512
	yardSmallBytes  = 256 << 10
	yardBigBytes    = 64 << 20
	yardSmallEvents = 200_000 // ≈ 17 ms
	yardBigEvents   = 50_000  // ≈ 22 ms

	// Reference times, ns per event: what the kernels take between batches
	// on the reference box in a quiet spell (caches just used by the
	// workload; alone they run 3% and 10% faster). They only fix the scale,
	// slowdown ≈ 1 when the box is quiet; a comparison of two commits on one
	// box does not depend on them.
	yardSmallRefNs = 88.0
	yardBigRefNs   = 480.0
)

func newYardstick() (*yardstick, error) {
	big, err := syscall.Mmap(-1, 0, yardBigBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("yardstick: map %d MiB: %w", yardBigBytes>>20, err)
	}
	y := &yardstick{small: make([]byte, yardSmallBytes), big: big, x: 0x9e3779b97f4a7c15}
	for _, t := range [][]byte{y.small, y.big} {
		for i := 0; i < len(t); i += 8 {
			binary.LittleEndian.PutUint64(t[i:], uint64(i)*0x2545f4914f6cdd1d)
		}
	}
	for i := 0; i < yardHeap; i++ {
		y.push(yardEvent{at: int64(y.rnd() % 1000), slot: uint32(y.rnd())})
	}
	return y, nil
}

// close unmaps the big table. A nil yardstick has nothing to release.
func (y *yardstick) close() {
	if y != nil {
		_ = syscall.Munmap(y.big) // the mapping is private and anonymous: nothing to lose
		y.big = nil
	}
}

func (y *yardstick) rnd() uint64 {
	y.x ^= y.x << 13
	y.x ^= y.x >> 7
	y.x ^= y.x << 17
	return y.x
}

func (y *yardstick) push(e yardEvent) {
	h := append(y.heap, e)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p].at <= h[i].at {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	y.heap = h
}

func (y *yardstick) pop() yardEvent {
	h := y.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		l, r, m := 2*i+1, 2*i+2, i
		if l < n && h[l].at < h[m].at {
			m = l
		}
		if r < n && h[r].at < h[m].at {
			m = r
		}
		if m == i {
			break
		}
		h[m], h[i] = h[i], h[m]
		i = m
	}
	y.heap = h
	return top
}

// kernel dispatches n events over table (a power of two long): pop the
// earliest, chase two dependent words of the table, write a third, schedule a
// successor. It returns nanoseconds per event.
func (y *yardstick) kernel(table []byte, n int) float64 {
	mask := uint64(len(table)/8 - 1)
	word := func(i uint64) []byte { return table[(i&mask)*8:] }
	t0 := time.Now()
	for i := 0; i < n; i++ {
		e := y.pop()
		a := binary.LittleEndian.Uint64(word(uint64(e.slot)))
		b := binary.LittleEndian.Uint64(word(a))
		binary.LittleEndian.PutUint64(word(a^b), a+b+uint64(i))
		y.push(yardEvent{at: e.at + int64(y.rnd()%1000) + 1, slot: uint32(a ^ b ^ y.rnd())})
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// tick runs both kernels once (≈ 40 ms) and returns the box's slowdown right
// now: about 1 on the reference box in a quiet spell, more when it is slower. A nil
// yardstick (traced passes, the self-check) reads 1.
func (y *yardstick) tick() float64 {
	if y == nil {
		return 1
	}
	s := y.kernel(y.small, yardSmallEvents) / yardSmallRefNs
	b := y.kernel(y.big, yardBigEvents) / yardBigRefNs
	slow := math.Sqrt(s * b)
	y.ticks = append(y.ticks, slow)
	return slow
}

// note describes the run's slowdowns for the output header.
func (y *yardstick) note() string {
	q := quartiles(y.ticks)
	return fmt.Sprintf("yardstick: %d ticks, slowdown quartiles %.3f %.3f %.3f (1 = the reference box in a quiet spell); host times are divided by the tick before each batch",
		len(y.ticks), q[0], q[1], q[2])
}
