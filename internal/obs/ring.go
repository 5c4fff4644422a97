package obs

import "sync"

// ring is a fixed-capacity ring buffer guarded by a mutex, the shape both
// TraceRing and EventLog share. Wraparound semantics: the ring keeps the
// most recent capacity entries. Once full, each append overwrites the
// oldest held entry (strict FIFO eviction), so after n appends the ring
// holds appends [max(0, n-capacity), n). Snapshot always returns the held
// entries oldest-first, including the append that lands exactly on the
// capacity boundary.
type ring[T any] struct {
	mu    sync.Mutex
	buf   []T
	pos   int // next write index == oldest entry once full
	full  bool
	total uint64
}

func newRing[T any](capacity int) ring[T] {
	if capacity < 1 {
		capacity = 1
	}
	return ring[T]{buf: make([]T, capacity)}
}

// Append records one entry, overwriting the oldest when full.
func (r *ring[T]) Append(v T) {
	r.mu.Lock()
	r.buf[r.pos] = v
	r.pos++
	if r.pos == len(r.buf) {
		r.pos = 0
		r.full = true
	}
	r.total++
	r.mu.Unlock()
}

// Total returns the number of entries ever appended.
func (r *ring[T]) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Snapshot returns the held entries, oldest first: once the ring has
// wrapped, the entry at the write cursor is the oldest survivor, so the
// snapshot is buf[pos:] followed by buf[:pos].
func (r *ring[T]) Snapshot() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		return append([]T(nil), r.buf[:r.pos]...)
	}
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.pos:]...)
	return append(out, r.buf[:r.pos]...)
}

func (r *ring[T]) held() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		return len(r.buf)
	}
	return r.pos
}
