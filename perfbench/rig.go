package main

import (
	"time"

	"sora/internal/cluster"
	"sora/internal/core"
	"sora/internal/metrics"
	"sora/internal/profile"
	"sora/internal/sim"
	"sora/internal/telemetry"
	"sora/internal/trace"
	"sora/internal/workload"
)

// goodputRTT is the experiments' end-to-end goodput threshold (400 ms).
const goodputRTT = 400 * time.Millisecond

// rigSpec is one arm's scenario, built from the public constructors in
// the same order as the experiment package builds it, so the rebuilt arm
// simulates exactly what the unit simulates.
type rigSpec struct {
	seed         uint64
	app          cluster.App
	mix          []cluster.WeightedRequest
	refs         []cluster.ResourceRef
	target       workload.TargetFunc
	tel          *telemetry.Recorder
	flightWindow time.Duration
	prof         *profile.Aggregator
	// scgWindow is the span of the probes' Warehouse.Window reads.
	scgWindow time.Duration
}

// layerCounts are the per-layer counts one arm run accumulates.
type layerCounts struct {
	spans          uint64
	recommendCalls int
	stepCalls      int
	hwChanges      int
	retainedPeak   int
	logLenPeak     int
}

// armRig is a deployed cluster, closed loop, monitor and optional
// controller, with spans around the calls into each layer when sp is
// non-nil.
type armRig struct {
	k      *sim.Kernel
	c      *cluster.Cluster
	mon    *core.Monitor
	loop   *workload.ClosedLoop
	ctl    *core.Controller
	e2e    *metrics.CompletionLog
	flight *cluster.FlightRecorder

	tickers   []*sim.Ticker
	onStart   []func()
	sp        *recorder
	scgWindow time.Duration
	counts    layerCounts
	// probeNs is the host time spent in probes, which runArm excludes
	// from the arm's run time.
	probeNs int64
}

func newArmRig(spec rigSpec, sp *recorder) (*armRig, error) {
	k := sim.NewKernel(spec.seed)
	c, err := cluster.New(k, spec.app, cluster.Options{Telemetry: spec.tel})
	if err != nil {
		return nil, err
	}
	if spec.mix != nil {
		if err := c.SetMix(spec.mix); err != nil {
			return nil, err
		}
	}
	mon, err := core.NewMonitor(c, 0, spec.refs, c.ServiceNames())
	if err != nil {
		return nil, err
	}
	r := &armRig{k: k, c: c, mon: mon, e2e: &metrics.CompletionLog{}, sp: sp, scgWindow: spec.scgWindow}
	r.loop, err = workload.NewClosedLoop(k, workload.ClosedLoopConfig{
		Target: spec.target,
		Submit: func(done func()) {
			id := sp.start("cluster.submit")
			c.SubmitMixWith(done)
			sp.end(id)
		},
	})
	if err != nil {
		return nil, err
	}
	if spec.tel != nil && spec.flightWindow > 0 {
		if r.flight, err = c.ArmFlightRecorder(spec.flightWindow, goodputRTT); err != nil {
			return nil, err
		}
	}
	c.OnComplete(func(tr *trace.Trace) {
		if sp != nil {
			r.counts.spans += uint64(tr.SpanCount())
		}
		id := sp.start("cluster.on_complete")
		r.e2e.AddFlagged(k.Now(), tr.ResponseTime(), tr.Root.Degraded)
		sp.end(id)
	})
	if spec.prof != nil {
		c.OnComplete(func(tr *trace.Trace) {
			id := sp.start("profile.add")
			spec.prof.Add(tr)
			sp.end(id)
		})
	}
	return r, nil
}

// tracedModel wraps a concurrency model with a span per Recommend.
type tracedModel struct {
	core.Model
	r *armRig
}

func (m tracedModel) Recommend(now sim.Time, managed []core.ManagedResource) (core.Recommendation, error) {
	id := m.r.sp.start("core.recommend")
	defer m.r.sp.end(id)
	m.r.counts.recommendCalls++
	return m.Model.Recommend(now, managed)
}

// tracedScaler wraps a hardware autoscaler with a span per Step.
type tracedScaler struct {
	core.HardwareScaler
	r *armRig
}

func (s tracedScaler) Step(now sim.Time) bool {
	id := s.r.sp.start("autoscaler.step")
	defer s.r.sp.end(id)
	s.r.counts.stepCalls++
	changed := s.HardwareScaler.Step(now)
	if changed {
		s.r.counts.hwChanges++
	}
	return changed
}

// attachController wires a controller whose model and scaler calls are
// traced.
func (r *armRig) attachController(cfg core.ControllerConfig) error {
	cfg.Model = tracedModel{Model: cfg.Model, r: r}
	if cfg.Scaler != nil {
		cfg.Scaler = tracedScaler{HardwareScaler: cfg.Scaler, r: r}
	}
	ctl, err := core.NewController(r.c, cfg)
	r.ctl = ctl
	return err
}

// run executes the scenario for d and drains in-flight work, like the
// experiment package's rig, with the kernel advanced one control period
// per RunUntil chunk. Between chunks the read-only probes run; chunking
// changes nothing the simulation sees, since RunUntil(t1) then
// RunUntil(t2) processes the same events in the same order as
// RunUntil(t2).
func (r *armRig) run(d time.Duration) {
	r.mon.Start()
	r.loop.Start()
	if r.ctl != nil {
		r.ctl.Start()
	}
	for _, fn := range r.onStart {
		fn()
	}
	end := r.k.Now() + sim.Time(d)
	for r.k.Now() < end {
		next := min(r.k.Now()+sim.Time(core.DefaultControlPeriod), end)
		id := r.sp.start("sim.run_until")
		r.k.RunUntil(next)
		r.sp.end(id)
		r.probe()
	}
	r.flight.Stop()
	if r.ctl != nil {
		r.ctl.Stop()
	}
	for _, t := range r.tickers {
		t.Stop()
	}
	r.loop.Stop()
	r.mon.Stop()
	id := r.sp.start("sim.drain")
	r.k.Run()
	r.sp.end(id)
	r.c.FlushTelemetry()
}

// probe makes the read-only calls the traced run measures at each
// control step: Warehouse.Window and Trace.CriticalPath over the SCG
// window, plus the retained-trace and completion-log sizes. They count
// as probes, not as run time.
func (r *armRig) probe() {
	if r.sp == nil {
		return
	}
	t0 := r.sp.now()
	now := r.k.Now()
	id := r.sp.start("probe.trace_window")
	window := r.c.Warehouse().Window(now-sim.Time(r.scgWindow), now)
	r.sp.end(id)
	id = r.sp.start("probe.critical_path")
	for _, tr := range window {
		tr.CriticalPath()
	}
	r.sp.end(id)
	r.counts.retainedPeak = max(r.counts.retainedPeak, r.c.Warehouse().Len())
	logLen := r.c.Completions().Len()
	for _, name := range r.c.ServiceNames() {
		if svc, err := r.c.Service(name); err == nil {
			logLen += svc.SpanLog().Len()
		}
	}
	r.counts.logLenPeak = max(r.counts.logLenPeak, logLen)
	r.probeNs += r.sp.now() - t0
}

// busyCoreSeconds sums the simulated CPU busy time of every service,
// read once the run has drained (reading advances the PS servers'
// accounting, so it must not happen mid-run).
func (r *armRig) busyCoreSeconds() float64 {
	var busy float64
	for _, name := range r.c.ServiceNames() {
		if svc, err := r.c.Service(name); err == nil {
			busy += svc.CumulativeBusy()
		}
	}
	return busy
}
