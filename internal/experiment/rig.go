package experiment

import (
	"fmt"
	"sort"
	"time"

	"sora/internal/autoscaler"
	"sora/internal/cluster"
	"sora/internal/core"
	"sora/internal/node"
	"sora/internal/sim"
	"sora/internal/stats"
	"sora/internal/topology"
	"sora/internal/workload"
)

// This file is the scenario harness every experiment driver builds on:
// the rig itself, the strategy wiring (manage), the scenario builders
// the comparative experiments share, the timeline column helpers and
// the run summary.

// rig bundles a deployed cluster, a closed-loop workload and (optionally)
// monitoring plus a Sora/ConScale controller — the shared scaffolding of
// every experiment. Final-report statistics come from the cluster's
// completion log, c.Completions(), which holds the whole run.
type rig struct {
	k    *sim.Kernel
	c    *cluster.Cluster
	mon  *core.Monitor
	loop *workload.ClosedLoop
	ctl  *core.Controller

	timeline *timeline
	flight   *cluster.FlightRecorder
	tickers  []*sim.Ticker
	stoppers []func()
}

// every schedules a recurring callback that is automatically stopped when
// the run ends, so the post-run drain terminates.
func (r *rig) every(period time.Duration, fn func()) {
	r.tickers = append(r.tickers, r.k.Every(period, fn))
}

// onStop registers a callback run at the end of the measured window,
// before the drain — controllers with their own tickers must be stopped
// here or the drain never terminates.
func (r *rig) onStop(fn func()) {
	if fn != nil {
		r.stoppers = append(r.stoppers, fn)
	}
}

// rigConfig declares one scenario.
type rigConfig struct {
	seed uint64
	app  cluster.App
	mix  []cluster.WeightedRequest // optional mix override

	// target drives the closed-loop population; think times take the
	// RUBBoS-like default.
	target workload.TargetFunc

	// refs are monitored soft resources; every service gets a CPU gauge.
	refs []cluster.ResourceRef

	// sampleInterval overrides the monitor cadence (0 = 100 ms).
	sampleInterval time.Duration

	// ctrl, when non-nil, deploys the cluster on a simulated multi-node
	// control plane: pods are bin-packed onto nodes, cold-start before
	// serving, and endpoint changes reach the balancers after a lag
	// (see internal/node). Nil keeps the legacy instant-pod model.
	ctrl *node.Config
}

// newRig builds the scenario. Telemetry, the flight-recorder window and
// the profile aggregator come from p: fan-out sites pass
// p.unitParams(...) so parallel rigs never share a telemetry node, while
// the profile aggregator is shared as-is (see Params.Profile). The
// flight recorder classifies windows against the goodput SLA.
func newRig(p Params, cfg rigConfig) (*rig, error) {
	k := sim.NewKernel(cfg.seed)
	c, err := cluster.New(k, cfg.app, cluster.Options{Telemetry: p.Telemetry, ControlPlane: cfg.ctrl})
	if err != nil {
		return nil, err
	}
	if cfg.mix != nil {
		if err := c.SetMix(cfg.mix); err != nil {
			return nil, err
		}
	}
	mon, err := core.NewMonitor(c, cfg.sampleInterval, cfg.refs, c.ServiceNames())
	if err != nil {
		return nil, err
	}
	if cfg.target == nil {
		return nil, fmt.Errorf("experiment: rig needs a workload target")
	}
	loop, err := workload.NewClosedLoop(k, workload.ClosedLoopConfig{
		Target: cfg.target,
		Submit: func(done func()) { c.SubmitMixWith(done) },
	})
	if err != nil {
		return nil, err
	}
	r := &rig{k: k, c: c, mon: mon, loop: loop}
	if p.Telemetry != nil && p.Timeline > 0 {
		f, err := c.ArmFlightRecorder(p.Timeline, goodputRTT)
		if err != nil {
			return nil, err
		}
		r.flight = f
	}
	if p.Profile != nil {
		c.OnComplete(p.Profile.Add)
	}
	return r, nil
}

// newCartRig builds the Cart scenario of Figures 10-11, Tables 2-3 and
// the chaos experiment: a 2-core Cart with the given thread pool under
// cart-only closed-loop load. It returns the rig and Cart's thread pool
// as strategies manage it (2..200 threads).
func newCartRig(p Params, threads int, target workload.TargetFunc) (*rig, core.ManagedResource, error) {
	cfg := topology.DefaultSockShop()
	cfg.CartCores = 2
	cfg.CartThreads = threads
	app := topology.SockShop(cfg)
	ref := cluster.ResourceRef{Service: topology.Cart, Kind: cluster.PoolThreads}
	r, err := newRig(p, rigConfig{
		seed:   p.Seed,
		app:    app,
		mix:    topology.CartOnlyMix(app),
		refs:   []cluster.ResourceRef{ref},
		target: target,
	})
	return r, core.ManagedResource{Ref: ref, Min: 2, Max: 200}, err
}

// cartFIRM is FIRM scaling Cart's cores on the {2, 4} ladder.
func cartFIRM(r *rig, slo time.Duration) (core.HardwareScaler, error) {
	return autoscaler.NewFIRM(r.c, autoscaler.FIRMConfig{
		Service: topology.Cart,
		SLO:     slo,
		Ladder:  []float64{2, 4},
	})
}

// readPathMaxReplicas bounds the HPA on Post Storage.
const readPathMaxReplicas = 6

// newReadPathRig builds the Figure-12 read path: Home Timeline fanning
// out to Post Storage over a client connection pool, sized by cfg, under
// home-timeline-only (light) closed-loop load; ctrl optionally deploys
// it on a multi-node control plane. It returns the rig and that pool as
// strategies manage it (4..300 connections).
func newReadPathRig(p Params, cfg topology.SocialNetworkConfig, target workload.TargetFunc, ctrl *node.Config) (*rig, core.ManagedResource, error) {
	ref := cluster.ResourceRef{
		Service: topology.HomeTimeline,
		Kind:    cluster.PoolClientConns,
		Target:  topology.PostStorage,
	}
	r, err := newRig(p, rigConfig{
		seed:   p.Seed,
		app:    topology.SocialNetwork(cfg),
		mix:    topology.HomeTimelineOnlyMix(false),
		refs:   []cluster.ResourceRef{ref},
		target: target,
		ctrl:   ctrl,
	})
	return r, core.ManagedResource{Ref: ref, Min: 4, Max: 300}, err
}

// readPathHPA is the HPA scaling Post Storage out.
func readPathHPA(r *rig) (core.HardwareScaler, error) {
	return autoscaler.NewHPA(r.c, autoscaler.HPAConfig{
		Service:     topology.PostStorage,
		MaxReplicas: readPathMaxReplicas,
	})
}

// modelKind selects the concurrency model of a management strategy.
type modelKind int

const (
	// modelNone leaves soft resources static.
	modelNone modelKind = iota
	// modelSCG is Sora's goodput-knee model.
	modelSCG
	// modelSCT is ConScale's throughput-knee model.
	modelSCT
)

// manage wires one management strategy onto the rig. Without a hardware
// scaler nothing runs; with a scaler and modelNone the scaler steps on
// its own control loop; otherwise a controller running the model over
// scg's configuration adapts the managed resource (after the warmup) on
// top of the scaler. Call before run.
func (r *rig) manage(hw core.HardwareScaler, model modelKind, scg core.SCGConfig, managed core.ManagedResource, warmup time.Duration) error {
	var m core.Model
	var err error
	switch {
	case hw == nil:
		return nil
	case model == modelNone:
		r.every(core.DefaultControlPeriod, func() { hw.Step(r.k.Now()) })
		return nil
	case model == modelSCG:
		m, err = core.NewSCG(r.c, r.mon, scg)
	case model == modelSCT:
		m, err = core.NewSCT(r.c, r.mon, scg)
	}
	if err != nil {
		return err
	}
	r.ctl, err = core.NewController(r.c, core.ControllerConfig{
		Model:   m,
		Scaler:  hw,
		Managed: []core.ManagedResource{managed},
		Warmup:  warmup,
	})
	return err
}

// run executes the scenario for the given duration and drains in-flight
// work. Timeline sampling (if armed) stops at the nominal end.
func (r *rig) run(d time.Duration) {
	r.mon.Start()
	r.loop.Start()
	if r.ctl != nil {
		r.ctl.Start()
	}
	if r.timeline != nil {
		r.timeline.start(r.k)
	}
	r.k.RunUntil(r.k.Now() + sim.Time(d))
	if r.timeline != nil {
		r.timeline.stop()
	}
	// The flight recorder's ticker must stop before the drain (it would
	// re-arm forever); Stop also flushes the final partial window.
	r.flight.Stop()
	if r.ctl != nil {
		r.ctl.Stop()
	}
	for _, fn := range r.stoppers {
		fn()
	}
	for _, t := range r.tickers {
		t.Stop()
	}
	r.loop.Stop()
	r.mon.Stop()
	r.k.Run() // drain
	r.c.FlushTelemetry()
	noteKernelRun(r.k)
}

// timeline samples named gauges once per tick into rows for CSV/ASCII
// output.
type timeline struct {
	interval time.Duration
	names    []string
	fns      []func() float64
	rows     [][]float64
	ticker   *sim.Ticker
}

// newTimeline creates a recorder at the given cadence.
func newTimeline(interval time.Duration) *timeline {
	if interval <= 0 {
		interval = time.Second
	}
	return &timeline{interval: interval}
}

// column registers one sampled column.
func (tl *timeline) column(name string, fn func() float64) {
	tl.names = append(tl.names, name)
	tl.fns = append(tl.fns, fn)
}

func (tl *timeline) start(k *sim.Kernel) {
	tl.ticker = k.Every(tl.interval, func() {
		row := make([]float64, 0, len(tl.fns)+1)
		row = append(row, k.Now().Seconds())
		for _, fn := range tl.fns {
			row = append(row, fn())
		}
		tl.rows = append(tl.rows, row)
	})
}

func (tl *timeline) stop() {
	if tl.ticker != nil {
		tl.ticker.Stop()
	}
}

// header returns the CSV header (time first).
func (tl *timeline) header() []string {
	return append([]string{"t_s"}, tl.names...)
}

// series extracts one column by name.
func (tl *timeline) series(name string) []float64 {
	idx := -1
	for i, n := range tl.names {
		if n == name {
			idx = i + 1
			break
		}
	}
	if idx < 0 {
		return nil
	}
	out := make([]float64, len(tl.rows))
	for i, row := range tl.rows {
		out[i] = row[idx]
	}
	return out
}

// The timeline column helpers below return per-tick gauges over the
// rig; each call creates independent state, so register one per column.

// meanRTColumn samples the mean response time [ms] of the completions
// since the previous tick (0 for a tick without completions).
func (r *rig) meanRTColumn() func() float64 {
	var last sim.Time
	return func() float64 {
		since, until := last, r.k.Now()
		last = until
		rts := r.c.Completions().ResponseTimes(since, until)
		if len(rts) == 0 {
			return 0
		}
		var sum float64
		for _, v := range rts {
			sum += v
		}
		return sum / float64(len(rts))
	}
}

// goodputColumn samples the goodput [req/s] against threshold over the
// trailing tick.
func (r *rig) goodputColumn(tick, threshold time.Duration) func() float64 {
	return func() float64 {
		now := r.k.Now()
		return r.c.Completions().GoodputRate(now-sim.Time(tick), now, threshold)
	}
}

// cpuUtilColumn samples the service's CPU utilization since the previous
// tick in percent of one core, like the paper's "Pod CPU Util [%]".
func cpuUtilColumn(svc *cluster.Service) func() float64 {
	var lastBusy, lastCapacity float64
	return func() float64 {
		busy := svc.CumulativeBusy()
		capacity := svc.CumulativeCapacity()
		db, dc := busy-lastBusy, capacity-lastCapacity
		lastBusy, lastCapacity = busy, capacity
		if dc <= 0 {
			return 0
		}
		return db / dc * svc.TotalCores() * 100
	}
}

// poolSizeColumn samples the pool's configured size (0 if unresolvable).
func (r *rig) poolSizeColumn(ref cluster.ResourceRef) func() float64 {
	return func() float64 {
		size, err := r.c.PoolSize(ref)
		if err != nil {
			return 0
		}
		return float64(size)
	}
}

// poolInUseColumn samples the pool's in-use count (0 if unresolvable).
func (r *rig) poolInUseColumn(ref cluster.ResourceRef) func() float64 {
	return func() float64 {
		n, err := r.c.PoolInUse(ref)
		if err != nil {
			return 0
		}
		return float64(n)
	}
}

// replicasColumn samples the service's replica count.
func replicasColumn(svc *cluster.Service) func() float64 {
	return func() float64 { return float64(svc.Replicas()) }
}

// runSummary is the end-to-end outcome of one measured interval: tail
// latency, goodput within the SLA and total throughput [req/s], and the
// good/degraded/violated split of its completions.
type runSummary struct {
	p95, p99      time.Duration
	goodput, thru float64

	goodFrac, degradedFrac, violatedFrac float64
}

// summarize computes the run summary of the completions in [from, to)
// against the SLA. An empty interval summarizes to zeros.
func (r *rig) summarize(from, to sim.Time, sla time.Duration) runSummary {
	var s runSummary
	if to <= from {
		return s
	}
	log := r.c.Completions()
	good, degraded, violated := log.CountsByOutcome(from, to, sla)
	total := good + degraded + violated
	s.goodput = float64(good) / (to - from).Seconds()
	s.thru = float64(total) / (to - from).Seconds()
	if total == 0 {
		return s
	}
	s.goodFrac = float64(good) / float64(total)
	s.degradedFrac = float64(degraded) / float64(total)
	s.violatedFrac = float64(violated) / float64(total)
	// Sorted once here, the copy each percentile lookup sorts is already
	// in order, so neither pays for a full sort.
	rts := log.ResponseTimes(from, to)
	sort.Float64s(rts)
	s.p95 = percentileMS(rts, 95)
	s.p99 = percentileMS(rts, 99)
	return s
}

// percentileMS is the p-th percentile of millisecond samples as a
// duration, as metrics.CompletionLog.Percentile computes it.
func percentileMS(ms []float64, p float64) time.Duration {
	v, err := stats.Percentile(ms, p)
	if err != nil {
		return 0
	}
	return time.Duration(v * float64(time.Millisecond))
}
