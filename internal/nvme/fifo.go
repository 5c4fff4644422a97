package nvme

// FIFO is the queue every scheduler holds its waiting IOs in. It keeps its
// backing array across the empty/non-empty cycle a closed-loop workload
// drives it through: pops advance a head index instead of reslicing, so
// steady-state pushes reuse capacity rather than allocating.
type FIFO[T any] struct {
	buf  []T
	head int
}

// Len returns the number of queued entries.
func (q *FIFO[T]) Len() int { return len(q.buf) - q.head }

// Front returns the oldest entry; the queue must not be empty.
func (q *FIFO[T]) Front() T { return q.buf[q.head] }

// Push appends v.
func (q *FIFO[T]) Push(v T) {
	if q.head > 0 && q.head == len(q.buf) {
		// Drained: rewind to reuse the full capacity.
		q.buf = q.buf[:0]
		q.head = 0
	} else if q.head >= 32 && q.head*2 >= len(q.buf) {
		// Mostly-consumed prefix under sustained load: slide down in place.
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, v)
}

// Pop removes and returns the oldest entry; the queue must not be empty.
func (q *FIFO[T]) Pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero // release for GC
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return v
}
