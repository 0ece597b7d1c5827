package metrics

import (
	"sort"

	"sora/internal/sim"
)

// chunkLen is the capacity of one chunk of a chunks store. 1,024
// Completions are 24 KiB and 1,024 Points 16 KiB, each exactly one Go
// size class, so a chunk wastes no allocator slack.
const chunkLen = 1024

// timed is an element of a chunks store: a record with a timestamp.
// Elements are stored in nondecreasing timestamp order.
type timed interface {
	when() sim.Time
}

// chunks is the append-only, front-prunable sequence behind Series and
// CompletionLog. Elements live in fixed-size chunks: append never copies
// a stored element (a full last chunk is followed by a fresh one), and
// dropping a prefix advances a head index and releases whole chunks, so
// a prune costs O(chunks dropped) however long the log is.
type chunks[T timed] struct {
	c    [][]T // c[0][head:], c[1], ..., c[len(c)-1]; all but the last are full
	head int   // index of the first live element in c[0]
	n    int   // live elements
}

// at returns the i-th live element, 0 <= i < n.
func (s *chunks[T]) at(i int) *T {
	i += s.head
	return &s.c[i/chunkLen][i%chunkLen]
}

// last returns the newest element; the store must not be empty.
func (s *chunks[T]) last() *T {
	c := s.c[len(s.c)-1]
	return &c[len(c)-1]
}

// push appends x.
func (s *chunks[T]) push(x T) {
	last := len(s.c) - 1
	if last < 0 || len(s.c[last]) == chunkLen {
		s.c = append(s.c, make([]T, 0, chunkLen))
		last++
	}
	s.c[last] = append(s.c[last], x) // within the chunk's capacity: never copies
	s.n++
}

// dropFront discards the k oldest elements, 0 <= k <= n.
func (s *chunks[T]) dropFront(k int) {
	if k <= 0 {
		return
	}
	off := s.head + k
	whole := off / chunkLen
	clear(s.c[:whole])
	s.c = s.c[whole:]
	s.head = off % chunkLen
	s.n -= k
}

// search returns the index of the first element at or after t (n when
// there is none).
func (s *chunks[T]) search(t sim.Time) int {
	return sort.Search(s.n, func(i int) bool { return (*s.at(i)).when() >= t })
}

// window returns the index range [lo, hi) of the elements in
// [since, until); an inverted window is empty.
func (s *chunks[T]) window(since, until sim.Time) (lo, hi int) {
	lo = s.search(since)
	if until <= since {
		return lo, lo
	}
	return lo, s.search(until)
}

// run returns the live elements from index lo up to hi or the end of
// lo's chunk, whichever comes first; lo < hi. Iterating a range is
//
//	for i := lo; i < hi; {
//		r := s.run(i, hi)
//		... range over r ...
//		i += len(r)
//	}
func (s *chunks[T]) run(lo, hi int) []T {
	i := s.head + lo
	c := s.c[i/chunkLen]
	j := i % chunkLen
	end := j + hi - lo
	if end > len(c) {
		end = len(c)
	}
	return c[j:end]
}

// copyRange returns a fresh slice of the live elements [lo, hi), or nil
// when the range is empty.
func (s *chunks[T]) copyRange(lo, hi int) []T {
	if lo >= hi {
		return nil
	}
	out := make([]T, 0, hi-lo)
	for i := lo; i < hi; {
		r := s.run(i, hi)
		out = append(out, r...)
		i += len(r)
	}
	return out
}
