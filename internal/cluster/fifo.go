package cluster

// fifo is a ring-buffer FIFO queue, used for the admission queues of
// pods and connection pools. push and pop are O(1): nothing is copied
// down on pop, a popped slot is zeroed so the queue pins nothing it no
// longer holds, and the buffer doubles only when full.
type fifo[T any] struct {
	buf  []T // ring storage; len(buf) is zero or a power of two
	head int // index of the oldest element
	n    int // queued elements
}

// len returns the number of queued elements.
func (q *fifo[T]) len() int { return q.n }

// push appends x at the tail.
func (q *fifo[T]) push(x T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = x
	q.n++
}

// pop removes and returns the oldest element; the queue must not be
// empty.
func (q *fifo[T]) pop() T {
	x := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return x
}

// grow doubles the full ring, unrolling it so the oldest element lands
// at index 0.
func (q *fifo[T]) grow() {
	buf := make([]T, max(4, 2*len(q.buf))) //soravet:allow hotpath ring growth doubles only when full: amortized O(1) per push, and a queue at steady depth never grows again
	copy(buf, q.buf[q.head:])
	copy(buf[len(q.buf)-q.head:], q.buf[:q.head])
	q.buf = buf
	q.head = 0
}
