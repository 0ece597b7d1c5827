package cluster

import (
	"testing"
	"time"

	"sora/internal/sim"
	"sora/internal/trace"
)

func TestFIFOWraparound(t *testing.T) {
	var q fifo[int]
	next, want := 0, 0
	// Keep three queued while the ring (capacity 4) turns over many times.
	for i := 0; i < 3; i++ {
		q.push(next)
		next++
	}
	for round := 0; round < 50; round++ {
		q.push(next)
		next++
		if got := q.pop(); got != want {
			t.Fatalf("round %d: pop = %d, want %d", round, got, want)
		}
		want++
	}
	if len(q.buf) != 4 {
		t.Errorf("ring capacity = %d, want 4: a queue at steady depth must not grow", len(q.buf))
	}
	if q.len() != 3 {
		t.Errorf("len = %d, want 3", q.len())
	}
}

func TestFIFOGrowsWhileWrapped(t *testing.T) {
	var q fifo[int]
	for i := 0; i < 4; i++ {
		q.push(i)
	}
	q.pop()
	q.pop()
	q.push(4)
	q.push(5) // full again, with the oldest element in the middle of the ring
	if q.head != 2 {
		t.Fatalf("head = %d, want 2 (ring not wrapped)", q.head)
	}
	q.push(6) // grows while wrapped
	if len(q.buf) != 8 {
		t.Fatalf("ring capacity = %d, want 8", len(q.buf))
	}
	for want := 2; want <= 6; want++ {
		if got := q.pop(); got != want {
			t.Fatalf("pop = %d, want %d", got, want)
		}
	}
	if q.len() != 0 {
		t.Errorf("len = %d after draining, want 0", q.len())
	}
}

func TestFIFOInterleavedOrder(t *testing.T) {
	var q fifo[int]
	var model []int
	next := 0
	// A deterministic push/pop pattern that wraps, grows while wrapped
	// and drains to empty several times.
	for step := 0; step < 2000; step++ {
		if (step*7)%11 < 6 || len(model) == 0 {
			q.push(next)
			model = append(model, next)
			next++
			continue
		}
		got := q.pop()
		if got != model[0] {
			t.Fatalf("step %d: pop = %d, want %d", step, got, model[0])
		}
		model = model[1:]
		if q.len() != len(model) {
			t.Fatalf("step %d: len = %d, want %d", step, q.len(), len(model))
		}
	}
}

func TestFIFOPopClearsSlot(t *testing.T) {
	var q fifo[*visit]
	v := &visit{}
	q.push(v)
	slot := q.head
	if q.pop() != v {
		t.Fatal("pop returned a different visit")
	}
	if q.buf[slot] != nil {
		t.Error("popped slot still references the visit")
	}
}

// TestFIFOSteadyStateAllocFree pins admission-queue push/pop at zero
// allocations once the ring has the queue's steady capacity.
func TestFIFOSteadyStateAllocFree(t *testing.T) {
	var q fifo[*visit]
	v := &visit{}
	for i := 0; i < 8; i++ {
		q.push(v)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		q.push(v)
		q.pop()
	}); avg != 0 {
		t.Errorf("push+pop at steady capacity: %.2f allocs, want 0", avg)
	}
}

// queuedSpans lists the spans of the visits waiting in an admission
// queue, oldest first.
func queuedSpans(q *fifo[*visit]) []*trace.Span {
	out := make([]*trace.Span, q.len())
	for i := range out {
		out[i] = q.buf[(q.head+i)&(len(q.buf)-1)].span
	}
	return out
}

func assertArrivalOrder(t *testing.T, spans []*trace.Span) {
	t.Helper()
	for i := 1; i < len(spans); i++ {
		if spans[i].Arrival <= spans[i-1].Arrival {
			t.Fatalf("queue out of arrival order at %d: %v after %v", i, spans[i].Arrival, spans[i-1].Arrival)
		}
	}
}

// TestThreadCapGrowthAdmitsInFIFOOrder: growing the thread pool admits
// exactly the oldest waiters, and the rest stay queued in arrival
// order — also when the ring has wrapped and grown in between.
func TestThreadCapGrowthAdmitsInFIFOOrder(t *testing.T) {
	k := sim.NewKernel(1)
	c := mustCluster(t, k, twoTier(1, 0))
	be, _ := c.Service("backend")
	in := be.Instances()[0]
	// Backend arrivals at 1..7 ms (1 ms of frontend work each); the
	// first holds the only slot for its 8 ms of work.
	for i := 0; i < 7; i++ {
		k.Schedule(time.Duration(i)*time.Millisecond, c.SubmitMix)
	}
	grow := func(at time.Duration, threadCap, admitted int) {
		k.RunUntil(sim.Time(at))
		before := queuedSpans(&in.queue)
		assertArrivalOrder(t, before)
		in.setThreadCap(threadCap)
		for i, s := range before {
			if started := s.Start == k.Now(); started != (i < admitted) {
				t.Fatalf("at %v: waiter %d (arrived %v) started=%v, want %v", at, i, s.Arrival, started, i < admitted)
			}
		}
		after := queuedSpans(&in.queue)
		if len(after) != len(before)-admitted {
			t.Fatalf("at %v: %d still queued, want %d", at, len(after), len(before)-admitted)
		}
		for i, s := range after {
			if s != before[admitted+i] {
				t.Fatalf("at %v: queue position %d changed after growth", at, i)
			}
		}
	}
	grow(5500*time.Microsecond, 2, 1) // queue 2..5 ms fills the 4-slot ring; admit the oldest
	if in.queue.head == 0 {
		t.Fatal("ring head did not advance")
	}
	grow(7500*time.Microsecond, 4, 2) // 6 ms wrapped, 7 ms grew the wrapped ring
	if len(in.queue.buf) != 8 {
		t.Fatalf("ring capacity = %d, want 8 after growing while wrapped", len(in.queue.buf))
	}
	k.Run()
	if c.Completed() != 7 {
		t.Errorf("completed = %d, want 7", c.Completed())
	}
}

// TestPoolSetCapDrainsWaitersInFIFOOrder: a grown connection pool hands
// its freed slots to waiters oldest first, as does release.
func TestPoolSetCapDrainsWaitersInFIFOOrder(t *testing.T) {
	p := pool{cap: 1}
	var ran []int
	for i := 0; i < 9; i++ {
		i := i
		p.acquire(func() { ran = append(ran, i) })
	}
	p.release() // slot 0 frees: waiter 1 runs
	p.release() // waiter 2
	p.setCap(4) // three more slots: waiters 3, 4, 5
	p.setCap(6) // waiters 6, 7
	p.release() // waiter 8
	want := []int{0, 1, 2, 3, 4, 5, 6, 7, 8}
	if len(ran) != len(want) {
		t.Fatalf("ran %v, want %v", ran, want)
	}
	for i := range want {
		if ran[i] != want[i] {
			t.Fatalf("ran %v, want %v", ran, want)
		}
	}
	if p.active != 6 || p.waiting.len() != 0 {
		t.Errorf("active=%d waiting=%d, want 6/0", p.active, p.waiting.len())
	}
}

// TestCrashRefusesQueueInOrder: a crash refuses every visit waiting for
// admission, oldest first, and leaves the pod with an empty queue.
func TestCrashRefusesQueueInOrder(t *testing.T) {
	k := sim.NewKernel(1)
	c := mustCluster(t, k, twoTier(1, 0))
	be, _ := c.Service("backend")
	in := be.Instances()[0]
	for i := 0; i < 6; i++ {
		k.Schedule(time.Duration(i)*time.Millisecond, c.SubmitMix)
	}
	k.RunUntil(sim.Time(6500 * time.Microsecond))
	queued := queuedSpans(&in.queue)
	if len(queued) != 5 {
		t.Fatalf("%d queued, want 5", len(queued))
	}
	assertArrivalOrder(t, queued)
	var refused []*trace.Span
	for i := 0; i < in.queue.len(); i++ {
		v := in.queue.buf[(in.queue.head+i)&(len(in.queue.buf)-1)]
		done := v.onDone
		v.onDone = func(v *visit) {
			refused = append(refused, v.span)
			done(v)
		}
	}
	in.Crash()
	if in.QueueLen() != 0 {
		t.Errorf("QueueLen = %d after crash, want 0", in.QueueLen())
	}
	if len(refused) != len(queued) {
		t.Fatalf("refused %d visits, want %d", len(refused), len(queued))
	}
	for i, s := range refused {
		if s != queued[i] || !s.Failed || s.End != k.Now() {
			t.Fatalf("refusal %d: got span arriving %v (failed=%v), want the one arriving %v", i, s.Arrival, s.Failed, queued[i].Arrival)
		}
	}
	k.Run()
	if c.Failed() != 6 {
		t.Errorf("failed = %d, want 6 (5 refused + 1 lost in flight)", c.Failed())
	}
}
