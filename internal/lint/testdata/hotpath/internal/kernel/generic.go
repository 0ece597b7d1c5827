package kernel

// ring is a generic queue. The type checker resolves a call on a
// ring[*Timer] to an instantiated method that has no declaration of its
// own; the scan must follow it to the generic declaration below.
type ring[T any] struct {
	buf []T
}

// push is reached only through the instantiated ring[*Timer].push.
func (r *ring[T]) push(x T) {
	r.buf = append(r.buf, x)
}

// grown is a generic function, called with an inferred and with an
// explicit type argument.
func grown[T any](xs []T) []T {
	return make([]T, 2*len(xs))
}

// parked is the queue Park fills.
var parked ring[*Timer]

// Park is a root whose allocations sit behind generic calls only.
//
//soravet:hotpath fixture pin: calls into generic functions and methods of generic types are followed
func (k *Kernel) Park(t *Timer) {
	parked.push(t)
	k.events = grown(k.events)
	_ = grown[int](nil)
}
