package cluster

import (
	"time"

	"sora/internal/sim"
	"sora/internal/trace"
)

// Wait modes: which span counter the visit's currently open off-CPU
// wait window belongs to. Exactly one window is open at a time, so
// Blocked, RetryWait and BreakerWait stay disjoint by construction and
// the profiler's seven-phase decomposition remains exact.
const (
	waitNone int8 = iota
	waitBlocked
	waitRetry
	waitBreaker
)

// visit is the execution state of one service visit (one span).
//
//soravet:pool visit invalidated-by Cluster.freeVisit handle dead once freeVisit returns; the cluster free-lists the struct and a later newVisit may reissue it (orphans are never freed and fall to the GC)
type visit struct {
	c    *Cluster
	inst *Instance
	node *CallNode
	span *trace.Span

	onDone func(*visit)

	// Child-call progress.
	childrenLeft int
	seqNext      int
	outstanding  int  // dispatched, not yet settled child attempts
	backoffs     int  // pending retry-backoff waits
	brWaits      int  // pending breaker-rejection backoff waits
	waitMode     int8 // which counter the open wait window feeds
	waitSince    sim.Time
	cpuSince     sim.Time // valid while a CPU work phase is in flight
	deadline     sim.Time // propagated deadline; 0 = none
	epoch        uint64   // pod epoch at admission; mismatch = crashed under us
	dropped      bool     // rejected at this service's admission queue
	failed       bool     // an essential descendant call was lost
	degraded     bool     // an optional descendant call was degraded away

	// reqDoneFn/resDoneFn are the CPU-phase completion callbacks, bound
	// once when the struct is first allocated and reused across pool
	// recycles, so submitting work to the PS server allocates no closure.
	reqDoneFn func()
	resDoneFn func()
}

// reWait maintains the visit's single off-CPU wait window. Blocked
// (RPCs in flight) dominates breaker backoff, which dominates retry
// backoff; on every mode change the closing window is charged to the
// span counter it belonged to. With no resilience policies configured
// this reduces to the original 0↔1 outstanding bookkeeping.
func (v *visit) reWait() {
	mode := waitNone
	switch {
	case v.outstanding > 0:
		mode = waitBlocked
	case v.brWaits > 0:
		mode = waitBreaker
	case v.backoffs > 0:
		mode = waitRetry
	}
	if mode == v.waitMode {
		return
	}
	now := v.c.k.Now()
	switch v.waitMode {
	case waitBlocked:
		v.span.Blocked += time.Duration(now - v.waitSince)
	case waitRetry:
		v.span.RetryWait += time.Duration(now - v.waitSince)
	case waitBreaker:
		v.span.BreakerWait += time.Duration(now - v.waitSince)
	}
	v.waitMode = mode
	v.waitSince = now
}

// startVisit routes a call-tree node to a pod of its service and begins
// the visit lifecycle. The parent span (if any) has already recorded the
// dispatch; onDone fires when the response leaves this service. The
// parent is identified by its span, not its visit: spans are
// arena-allocated and stable for the trace's lifetime, while the parent
// visit may already be recycled when a timed-out attempt's orphan call
// finally reaches the wire. The deadline is the caller's propagated
// deadline (0 = none); visits that find every pod of the service down
// are refused immediately.
//
//soravet:hotpath BenchmarkRequestPath per-hop admission: one startVisit per service visit, allocation-free except the span arena and pool misses
func (c *Cluster) startVisit(node *CallNode, parent *trace.Span, depth int, deadline sim.Time, onDone func(*visit)) *visit {
	svc := c.services[node.Service]
	if svc.flight != nil {
		svc.flight.arrivals++
	}
	inst := svc.pick()
	span := c.newSpan()
	span.Service = node.Service
	span.Depth = depth
	span.Arrival = c.k.Now()
	v := c.newVisit()
	v.inst = inst
	v.node = node
	v.span = span
	v.deadline = deadline
	v.onDone = onDone
	if parent != nil {
		parent.Children = append(parent.Children, v.span) //soravet:allow hotpath child-span list append: fan-out degree is call-graph bounded and small; a per-span presized slice would pin worst-case capacity on every span
	}
	if inst == nil {
		v.refuse()
		return v
	}
	v.span.Instance = inst.id
	inst.enqueue(v)
	return v
}

// begin runs when the visit is admitted past the thread pool. The
// sampled demand is recorded on the span (ideal CPU time) and the PS
// server's actual wall time is accounted on completion, so every span
// carries its own contention inflation.
func (v *visit) begin() {
	now := v.c.k.Now()
	v.span.Start = now
	demand := v.c.sampleDemand(v.node.ReqWork)
	v.span.Demand += demand
	v.cpuSince = now
	v.inst.cpu.Submit(demand, v.reqDoneFn)
}

// reqWorkDone closes the request-side CPU phase and moves to downstream
// dispatch.
func (v *visit) reqWorkDone() {
	v.span.CPU += time.Duration(v.c.k.Now() - v.cpuSince)
	v.childrenPhase()
}

// childrenPhase dispatches downstream calls after request-side work.
func (v *visit) childrenPhase() {
	v.childrenLeft = len(v.node.Children)
	if v.childrenLeft == 0 {
		v.responsePhase()
		return
	}
	if v.node.Parallel {
		// Dispatch all children now. Each dispatch may still wait on a
		// connection slot independently.
		for _, child := range v.node.Children {
			v.startCall(child)
		}
		return
	}
	v.seqNext = 0
	v.startCall(v.node.Children[v.seqNext])
	v.seqNext++
}

// startCall routes one downstream call: edges with a resilience policy
// or an injected fault go through the callState attempt machinery;
// everything else takes the original direct path, which allocates
// nothing beyond the child visit itself.
func (v *visit) startCall(child *CallNode) {
	es := v.c.edge(v.node.Service, child.Service)
	if es == nil || !es.active() {
		v.dispatchDirect(child)
		return
	}
	cs := &callState{v: v, child: child, es: es}
	cs.dispatch()
}

// dispatchDirect acquires this pod's downstream-connection slot and, if
// configured, the per-target client-connection slot, then sends the
// call. Slot waits happen off-CPU but count toward this service's
// processing time (the visit is not "blocked on downstream" until the
// RPC is actually in flight).
func (v *visit) dispatchDirect(child *CallNode) {
	v.inst.db.acquire(func() {
		cp, hasCP := v.inst.client[child.Service]
		if !hasCP {
			v.sendDirect(child, func() { v.inst.db.release() })
			return
		}
		cp.acquire(func() {
			v.sendDirect(child, func() {
				cp.release()
				v.inst.db.release()
			})
		})
	})
}

// sendDirect runs the child visit; release runs when its response
// arrives back, before continuing the parent.
func (v *visit) sendDirect(child *CallNode, release func()) {
	v.outstanding++
	v.reWait()
	v.c.startVisit(child, v.span, v.span.Depth+1, v.deadline, func(cv *visit) {
		release()
		v.outstanding--
		v.reWait()
		if cv.dropped || cv.failed {
			v.failed = true
		} else if cv.degraded {
			v.degraded = true
		}
		// The child's outcome has been consumed; its span stays
		// reachable through the trace tree, the struct recycles.
		v.c.freeVisit(cv)
		v.childAnswered()
	})
}

// callState drives one downstream call over a policy- or fault-bearing
// edge through its attempt budget.
type callState struct {
	v        *visit
	child    *CallNode
	es       *edgeState
	attempts int // attempts consumed (dispatched or breaker-rejected)
	done     bool
}

// dispatch consumes one attempt: deadline check, breaker admission,
// connection-slot acquisition, then the wire.
func (cs *callState) dispatch() {
	v := cs.v
	if v.deadline > 0 && v.c.k.Now() >= v.deadline {
		cs.exhausted()
		return
	}
	cs.attempts++
	allowed, isProbe := cs.es.breakerAllow(v.c)
	if !allowed {
		v.c.rejected++
		cs.afterFailure(true)
		return
	}
	v.inst.db.acquire(func() {
		cp, hasCP := v.inst.client[cs.child.Service]
		if !hasCP {
			cs.send(isProbe, func() { v.inst.db.release() })
			return
		}
		cp.acquire(func() {
			cs.send(isProbe, func() {
				cp.release()
				v.inst.db.release()
			})
		})
	})
}

// attempt is one try of a callState: it owns the connection slots, the
// timeout timer, and the settled flag that makes answer/timeout/loss
// mutually exclusive.
type attempt struct {
	cs      *callState
	release func()
	timer   *sim.Timer
	child   *trace.Span // child visit's span, for Abandoned marking
	isProbe bool
	settled bool
}

// send puts one attempt on the wire: computes the attempt deadline
// (min of policy timeout and propagated deadline), applies the edge's
// injected loss, and dispatches the child visit.
func (cs *callState) send(isProbe bool, release func()) {
	v := cs.v
	now := v.c.k.Now()
	at := &attempt{cs: cs, release: release, isProbe: isProbe}
	v.outstanding++
	v.reWait()
	var dl sim.Time
	if t := cs.es.policy.Timeout; t > 0 {
		dl = now + sim.Time(t)
	}
	if v.deadline > 0 && (dl == 0 || v.deadline < dl) {
		dl = v.deadline
	}
	if dl > 0 {
		at.timer = v.c.k.At(dl, at.timeout)
	}
	if f := cs.es.fault; f.LossProb > 0 && v.c.resRNG.Float64() < f.LossProb {
		// Lost on the wire: the callee never sees the call. The caller
		// learns nothing until its attempt deadline fires; with no
		// timeout configured, model a connection reset after one hop.
		v.c.lostCalls++
		if at.timer == nil {
			v.c.withEdgeDelay(cs.es, at.lost)
		}
		return
	}
	// Capture the parent span before the wire delay: if the attempt
	// times out in flight, v may finish and be recycled before the
	// closure runs, but the arena span stays valid for the trace.
	c, pspan, depth := v.c, v.span, v.span.Depth+1
	c.withEdgeDelay(cs.es, func() {
		if at.settled {
			// The caller already timed this attempt out while the
			// request was on the wire; the callee still executes it as
			// an orphan.
			orphan := c.startVisit(cs.child, pspan, depth, dl, nil)
			orphan.span.Abandoned = true
			return
		}
		cv := c.startVisit(cs.child, pspan, depth, dl, func(cv *visit) {
			c.withEdgeDelay(cs.es, func() { at.answered(cv) })
		})
		at.child = cv.span
	})
}

// settle closes the attempt exactly once: cancels the timer, frees the
// connection slots, and closes the visit's blocked window.
func (at *attempt) settle() bool {
	if at.settled {
		return false
	}
	at.settled = true
	if at.timer != nil {
		at.timer.Cancel()
		at.timer = nil
	}
	at.release()
	at.cs.v.outstanding--
	at.cs.v.reWait()
	return true
}

// answered handles the child's response reaching the caller. The child
// visit's flags are copied out and the struct recycled up front: in the
// timed-out-earlier path the parent may itself have finished (and been
// recycled) by the time the late response lands, so only the stable
// Cluster pointer may be touched through at.cs.v there.
func (at *attempt) answered(cv *visit) {
	failed := cv.dropped || cv.failed
	degraded := cv.degraded
	at.cs.v.c.freeVisit(cv)
	if !at.settle() {
		return // timed out earlier; the late response is discarded
	}
	cs := at.cs
	cs.es.breakerRecord(cs.v.c, at.isProbe, !failed)
	if failed {
		cs.afterFailure(false)
		return
	}
	if degraded {
		cs.v.degraded = true
	}
	cs.succeed()
}

// timeout fires at the attempt deadline: the in-flight child (if it
// started) becomes an orphan, and the attempt counts as failed.
func (at *attempt) timeout() {
	at.timer = nil
	if !at.settle() {
		return
	}
	if at.child != nil {
		at.child.Abandoned = true
	}
	cs := at.cs
	cs.v.c.timedOut++
	cs.es.breakerRecord(cs.v.c, at.isProbe, false)
	cs.afterFailure(false)
}

// lost handles a wire-lost attempt on an edge with no timeout: a
// one-hop connection reset.
func (at *attempt) lost() {
	if !at.settle() {
		return
	}
	cs := at.cs
	cs.es.breakerRecord(cs.v.c, at.isProbe, false)
	cs.afterFailure(false)
}

// afterFailure decides between another attempt (after backoff, charged
// to RetryWait or, for breaker rejections, BreakerWait) and exhaustion.
func (cs *callState) afterFailure(brRejected bool) {
	v := cs.v
	if cs.attempts < cs.es.maxAttempts() {
		backoff := cs.es.backoffFor(v.c, cs.attempts)
		if v.deadline == 0 || v.c.k.Now()+sim.Time(backoff) < v.deadline {
			if brRejected {
				v.brWaits++
			} else {
				v.backoffs++
				v.c.noteRetry(cs.es.key)
			}
			v.reWait()
			v.c.k.Schedule(backoff, func() {
				if brRejected {
					v.brWaits--
				} else {
					v.backoffs--
				}
				v.reWait()
				cs.dispatch()
			})
			return
		}
	}
	cs.exhausted()
}

// exhausted resolves the call after the attempt budget (or deadline) is
// spent: optional calls degrade the caller's response, essential calls
// fail its subtree.
func (cs *callState) exhausted() {
	if cs.done {
		return
	}
	cs.done = true
	if cs.es.policy.Optional {
		cs.v.degraded = true
	} else {
		cs.v.failed = true
	}
	cs.v.childAnswered()
}

// succeed resolves the call successfully.
func (cs *callState) succeed() {
	if cs.done {
		return
	}
	cs.done = true
	cs.v.childAnswered()
}

// childAnswered advances sequential dispatch or the join after one
// downstream call resolves (successfully, degraded, or failed).
func (v *visit) childAnswered() {
	v.childrenLeft--
	if v.childrenLeft == 0 {
		v.responsePhase()
		return
	}
	if !v.node.Parallel && v.seqNext < len(v.node.Children) {
		v.startCall(v.node.Children[v.seqNext])
		v.seqNext++
	}
}

// responsePhase runs response-side CPU work and finishes the visit.
func (v *visit) responsePhase() {
	demand := v.c.sampleDemand(v.node.ResWork)
	v.span.Demand += demand
	v.cpuSince = v.c.k.Now()
	v.inst.cpu.Submit(demand, v.resDoneFn)
}

// resWorkDone closes the response-side CPU phase and completes the visit.
func (v *visit) resWorkDone() {
	v.span.CPU += time.Duration(v.c.k.Now() - v.cpuSince)
	v.finish()
}

// finish stamps the span, frees the thread slot and notifies the parent.
// A pod that crashed while the visit was in flight (epoch mismatch, or
// still down) loses the response with the connection: the visit fails
// even though its work ran.
func (v *visit) finish() {
	now := v.c.k.Now()
	v.span.End = now
	if v.inst.down || v.epoch != v.inst.epoch {
		v.failed = true
	}
	if v.failed {
		v.span.Failed = true
	} else if v.degraded {
		v.span.Degraded = true
	}
	v.inst.svc.spanLog.AddFlagged(now, v.span.Duration(), v.span.Degraded)
	if t := v.inst.svc.flight; t != nil {
		t.completions++
		t.sketch.Observe(float64(v.span.Duration()) / float64(time.Millisecond))
	}
	v.inst.visitDone()
	if v.onDone != nil {
		fn := v.onDone
		v.onDone = nil
		fn(v)
	}
}

// drop rejects the visit at a full admission queue. The span is stamped
// with zero service time; the request is accounted as dropped, and the
// parent (or trace completion) continues so upstream slots are not
// leaked. Dropped root requests never reach the completion log.
func (v *visit) drop() {
	v.dropped = true
	now := v.c.k.Now()
	v.span.Start = now
	v.span.End = now
	v.span.Dropped = true
	if v.onDone != nil {
		fn := v.onDone
		v.onDone = nil
		fn(v)
	}
}

// refuse fails the visit at arrival: the pod it was routed to is down
// (or the whole service is), so the connection is refused before any
// work happens. Distinct from drop — the caller's retry policy treats
// both as failures, but refusals are counted separately and marked
// Failed, not Dropped.
func (v *visit) refuse() {
	v.failed = true
	now := v.c.k.Now()
	v.span.Start = now
	v.span.End = now
	v.span.Failed = true
	v.c.refused++
	if v.onDone != nil {
		fn := v.onDone
		v.onDone = nil
		fn(v)
	}
}
