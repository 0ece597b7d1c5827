package trace

import (
	"time"

	"sora/internal/sim"
)

// Warehouse is the in-memory trace store the Concurrency Estimator pulls
// from. It keeps completed traces for a bounded retention window of
// virtual time and evicts older ones lazily on Add and explicitly on
// Prune. Traces are appended in completion order, so eviction and range
// queries are simple prefix/suffix operations on a deque.
//
// The paper offloads this role to a Neo4j graph database plus per-service
// MongoDB stores; an in-process deque serves the query the model makes
// (traces completing in a window) without the storage substrate.
type Warehouse struct {
	retention time.Duration
	traces    []*Trace // completion-ordered; traces[head] is oldest
	head      int      // logical start; eviction advances it (amortized compaction)
	added     uint64
	evicted   uint64
}

// DefaultRetention bounds warehouse memory when the caller does not
// specify a window. Three minutes matches the longest metrics-collection
// window used by the SCG model.
const DefaultRetention = 3 * time.Minute

// NewWarehouse returns a warehouse retaining traces whose completion time
// is within the given window of the most recent Prune/Add. A non-positive
// retention selects DefaultRetention.
func NewWarehouse(retention time.Duration) *Warehouse {
	if retention <= 0 {
		retention = DefaultRetention
	}
	return &Warehouse{retention: retention}
}

// Retention returns the configured retention window.
func (w *Warehouse) Retention() time.Duration { return w.retention }

// Add stores a completed trace and evicts any traces that have fallen out
// of the retention window relative to this trace's completion time.
// Traces must be added in nondecreasing completion order (the simulator
// guarantees this).
func (w *Warehouse) Add(t *Trace) {
	if t == nil || t.Root == nil {
		return
	}
	w.traces = append(w.traces, t)
	w.added++
	w.evictBefore(t.CompletedAt() - w.retention)
}

// Prune drops all traces that completed before now-retention.
func (w *Warehouse) Prune(now sim.Time) {
	w.evictBefore(now - w.retention)
}

func (w *Warehouse) evictBefore(cutoff sim.Time) {
	i := w.head
	for i < len(w.traces) && w.traces[i].CompletedAt() < cutoff {
		w.traces[i] = nil // unpin for GC immediately
		i++
	}
	if i == w.head {
		return
	}
	w.evicted += uint64(i - w.head)
	w.head = i
	// Empty reset: when everything was evicted, rewind to the start of the
	// backing array so it is reused instead of growing behind a dead
	// prefix (a Prune after an idle window hits this path).
	if w.head == len(w.traces) {
		w.traces = w.traces[:0]
		w.head = 0
		return
	}
	// Amortized compaction: only shift the surviving suffix once the dead
	// prefix dominates, keeping per-Add eviction O(1) amortized.
	if w.head > len(w.traces)/2 && w.head > 1024 {
		remaining := len(w.traces) - w.head
		copy(w.traces, w.traces[w.head:])
		for j := remaining; j < len(w.traces); j++ {
			w.traces[j] = nil
		}
		w.traces = w.traces[:remaining]
		w.head = 0
	}
}

// live returns the retained slice view.
func (w *Warehouse) live() []*Trace { return w.traces[w.head:] }

// Len returns the number of retained traces.
func (w *Warehouse) Len() int { return len(w.traces) - w.head }

// Added returns the total number of traces ever stored.
func (w *Warehouse) Added() uint64 { return w.added }

// Evicted returns the total number of traces evicted so far.
func (w *Warehouse) Evicted() uint64 { return w.evicted }

// WarehouseStats is a point-in-time summary of warehouse churn, exposed
// for telemetry counters and capacity diagnostics.
type WarehouseStats struct {
	Added    uint64 // traces ever stored
	Evicted  uint64 // traces dropped out of the retention window
	Retained int    // traces currently held
}

// Stats returns the warehouse's churn counters and current size.
func (w *Warehouse) Stats() WarehouseStats {
	return WarehouseStats{Added: w.added, Evicted: w.evicted, Retained: w.Len()}
}

// Window returns the retained traces whose completion time lies in
// [since, until). The result aliases the warehouse's internal order but is
// a fresh slice; callers may not mutate the traces.
func (w *Warehouse) Window(since, until sim.Time) []*Trace {
	live := w.live()
	lo := lowerBound(live, since)
	hi := lowerBound(live, until)
	if lo >= hi {
		return nil
	}
	out := make([]*Trace, hi-lo)
	copy(out, live[lo:hi])
	return out
}

// All returns every retained trace in completion order.
func (w *Warehouse) All() []*Trace {
	live := w.live()
	out := make([]*Trace, len(live))
	copy(out, live)
	return out
}

// lowerBound returns the index of the first trace completing at or after t.
func lowerBound(traces []*Trace, t sim.Time) int {
	lo, hi := 0, len(traces)
	for lo < hi {
		mid := (lo + hi) / 2
		if traces[mid].CompletedAt() < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
