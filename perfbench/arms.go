package main

import (
	"fmt"
	"strings"
	"time"

	"sora/internal/autoscaler"
	"sora/internal/cluster"
	"sora/internal/core"
	"sora/internal/fault"
	"sora/internal/profile"
	"sora/internal/sim"
	"sora/internal/telemetry"
	"sora/internal/topology"
	"sora/internal/workload"
)

// armResult is one run of a rebuilt arm.
type armResult struct {
	wall   time.Duration
	events uint64
	// line summarises the arm's simulated p99 and goodput as the unit
	// prints them; check finds those values in the unit's output.
	line  string
	check func(unitOutput string) error

	rig          *armRig
	faultWindows int
}

// scaled mirrors experiment.Params' duration scaling: d*scale, floored
// at 20 s and capped at d.
func scaled(d time.Duration, scale float64) time.Duration {
	s := time.Duration(float64(d) * scale)
	return min(max(s, 20*time.Second), d)
}

// runArm times r.run(d), less the probes, and collects the arm's
// result.
func runArm(r *armRig, d time.Duration) *armResult {
	start := time.Now() //soravet:allow wallclock the benchmark times the arm on the host clock
	r.run(d)
	wall := time.Since(start) - time.Duration(r.probeNs) //soravet:allow wallclock the benchmark times the arm on the host clock
	return &armResult{wall: wall, events: r.k.Processed(), rig: r}
}

// containsLine checks that the unit printed exactly the arm's line.
func containsLine(line string) func(string) error {
	return func(out string) error {
		if !strings.Contains(out, line+"\n") {
			return fmt.Errorf("unit output lacks the rebuilt arm's line %q", line)
		}
		return nil
	}
}

// field is one expected whitespace-separated field of a unit line.
type field struct {
	idx  int
	want string
}

// fieldsMatch finds the first line after the header marker whose first
// field is key and checks the given fields.
func fieldsMatch(marker, key string, want ...field) func(string) error {
	return func(out string) error {
		i := strings.Index(out, marker)
		if i < 0 {
			return fmt.Errorf("unit output lacks %q", marker)
		}
		for _, line := range strings.Split(out[i:], "\n") {
			f := strings.Fields(line)
			if len(f) == 0 || f[0] != key {
				continue
			}
			for _, w := range want {
				if w.idx >= len(f) || f[w.idx] != w.want {
					return fmt.Errorf("unit line %q: field %d is not the rebuilt arm's %q", line, w.idx, w.want)
				}
			}
			return nil
		}
		return fmt.Errorf("unit output lacks a %q row after %q", key, marker)
	}
}

// fig12SoraArm rebuilds Figure 12's Sora case: Social Network under the
// Large Variation trace (3,200 peak users), HPA on Post Storage with SCG
// adapting Home Timeline's connections to it, and the light->heavy
// request drift at 450/720 of the run. The unit's 1 s timeline columns
// are sampled too, since reading CPU counters advances PS accounting.
func fig12SoraArm(seed uint64, scale float64, sp *recorder) (*armResult, error) {
	dur := scaled(12*time.Minute, scale)
	driftAt := time.Duration(float64(dur) * 450.0 / 720.0)
	cfg := topology.DefaultSocialNetwork()
	cfg.PostStorageConns = 15
	cfg.PostStorageCores = 2
	app := topology.SocialNetwork(cfg)
	ref := cluster.ResourceRef{Service: topology.HomeTimeline, Kind: cluster.PoolClientConns, Target: topology.PostStorage}
	r, err := newArmRig(rigSpec{
		seed:      seed,
		app:       app,
		mix:       topology.HomeTimelineOnlyMix(false),
		refs:      []cluster.ResourceRef{ref},
		target:    workload.TraceUsers(workload.LargeVariationTrace(), dur, 3200),
		scgWindow: 45 * time.Second,
	}, sp)
	if err != nil {
		return nil, err
	}
	r.k.At(sim.Time(driftAt), func() {
		if err := r.c.SetMix(topology.HomeTimelineOnlyMix(true)); err != nil {
			panic(err) // static mixes validated at build time
		}
	})
	hpa, err := autoscaler.NewHPA(r.c, autoscaler.HPAConfig{Service: topology.PostStorage, MaxReplicas: 6})
	if err != nil {
		return nil, err
	}
	scg, err := core.NewSCG(r.c, r.mon, core.SCGConfig{SLA: goodputRTT, Window: 45 * time.Second})
	if err != nil {
		return nil, err
	}
	if err := r.attachController(core.ControllerConfig{
		Model:   scg,
		Scaler:  hpa,
		Managed: []core.ManagedResource{{Ref: ref, Min: 4, Max: 300}},
		Warmup:  30 * time.Second,
	}); err != nil {
		return nil, err
	}
	ps, err := r.c.Service(topology.PostStorage)
	if err != nil {
		return nil, err
	}
	var lastTick sim.Time
	r.onStart = append(r.onStart, func() {
		r.tickers = append(r.tickers, r.k.Every(time.Second, func() {
			since, until := lastTick, r.k.Now()
			lastTick = until
			r.c.Completions().ResponseTimes(since, until)
			r.c.Completions().GoodputRate(until-sim.Time(time.Second), until, goodputRTT)
			ps.CumulativeBusy()
			ps.CumulativeCapacity()
			ps.TotalCores()
			_, _ = r.c.PoolSize(ref)
			_, _ = r.c.PoolInUse(ref)
			ps.Replicas()
		}))
	})
	res := runArm(r, dur)
	warm := sim.Time(10 * time.Second)
	p99, _ := r.e2e.Percentile(99, warm, sim.Time(dur))
	conns, _ := r.c.PoolSize(ref)
	res.line = fmt.Sprintf("%-10s %12.0f %16.0f %10d %12d", "Sora", p99.Seconds()*1000,
		r.e2e.GoodputRate(warm, sim.Time(dur), goodputRTT), ps.Replicas(), conns)
	res.check = containsLine(res.line)
	return res, nil
}

// table2FIRMSoraArm rebuilds Table 2's large_variation FIRM+Sora cell:
// 2-core Cart starting at 5 threads under the Large Variation trace
// (1,500 peak users), FIRM vertical scaling and SCG over a 60 s window.
func table2FIRMSoraArm(seed uint64, scale float64, sp *recorder) (*armResult, error) {
	dur := scaled(12*time.Minute, scale)
	cfg := topology.DefaultSockShop()
	cfg.CartCores = 2
	cfg.CartThreads = 5
	app := topology.SockShop(cfg)
	ref := cluster.ResourceRef{Service: topology.Cart, Kind: cluster.PoolThreads}
	r, err := newArmRig(rigSpec{
		seed:      seed,
		app:       app,
		mix:       topology.CartOnlyMix(app),
		refs:      []cluster.ResourceRef{ref},
		target:    workload.TraceUsers(workload.LargeVariationTrace(), dur, 1500),
		scgWindow: 60 * time.Second,
	}, sp)
	if err != nil {
		return nil, err
	}
	firm, err := autoscaler.NewFIRM(r.c, autoscaler.FIRMConfig{Service: topology.Cart, SLO: goodputRTT, Ladder: []float64{2, 4}})
	if err != nil {
		return nil, err
	}
	scg, err := core.NewSCG(r.c, r.mon, core.SCGConfig{SLA: goodputRTT, Window: 60 * time.Second})
	if err != nil {
		return nil, err
	}
	if err := r.attachController(core.ControllerConfig{
		Model:   scg,
		Scaler:  firm,
		Managed: []core.ManagedResource{{Ref: ref, Min: 2, Max: 200}},
		Warmup:  30 * time.Second,
	}); err != nil {
		return nil, err
	}
	res := runArm(r, dur)
	warm, end := sim.Time(10*time.Second), sim.Time(dur)
	p95, _ := r.e2e.Percentile(95, warm, end)
	p99, _ := r.e2e.Percentile(99, warm, end)
	gp := r.e2e.GoodputRate(warm, end, goodputRTT)
	res.line = fmt.Sprintf("%s Sora p95 %.0f p99 %.0f goodput %.0f", workload.TraceLargeVariation,
		p95.Seconds()*1000, p99.Seconds()*1000, gp)
	res.check = fieldsMatch("trace ", workload.TraceLargeVariation,
		field{2, fmt.Sprintf("%.0f", p95.Seconds()*1000)},
		field{4, fmt.Sprintf("%.0f", p99.Seconds()*1000)},
		field{6, fmt.Sprintf("%.0f", gp)})
	return res, nil
}

// chaosSockShopSoraArm rebuilds the chaos unit's sockshop/Sora run under
// the combo fault plan, with the telemetry recorder, flight recorder and
// profile aggregator armed as in the chaos_observed workload.
func chaosSockShopSoraArm(seed uint64, scale float64, sp *recorder) (*armResult, error) {
	dur := scaled(3*time.Minute, scale)
	tel := telemetry.NewRecorder("chaos")
	cfg := topology.DefaultSockShop()
	cfg.CartCores = 2
	cfg.CartThreads = 10
	app := topology.SockShop(cfg)
	ref := cluster.ResourceRef{Service: topology.Cart, Kind: cluster.PoolThreads}
	r, err := newArmRig(rigSpec{
		seed:         seed,
		app:          app,
		mix:          topology.CartOnlyMix(app),
		refs:         []cluster.ResourceRef{ref},
		target:       workload.ConstantUsers(900),
		tel:          tel,
		flightWindow: time.Second,
		prof:         profile.NewAggregator(0),
		scgWindow:    45 * time.Second,
	}, sp)
	if err != nil {
		return nil, err
	}
	if err := topology.ApplyResilience(r.c, topology.SockShopResilience()); err != nil {
		return nil, err
	}
	firm, err := autoscaler.NewFIRM(r.c, autoscaler.FIRMConfig{Service: topology.Cart, SLO: goodputRTT, Ladder: []float64{2, 4}})
	if err != nil {
		return nil, err
	}
	scg, err := core.NewSCG(r.c, r.mon, core.SCGConfig{SLA: goodputRTT, Window: 45 * time.Second})
	if err != nil {
		return nil, err
	}
	if err := r.attachController(core.ControllerConfig{
		Model:   scg,
		Scaler:  firm,
		Managed: []core.ManagedResource{{Ref: ref, Min: 2, Max: 200}},
		Warmup:  30 * time.Second,
	}); err != nil {
		return nil, err
	}
	plan, err := fault.NamedPlan("combo", fault.Targets{
		CrashService: topology.Cart,
		SlowService:  topology.CartDB,
		EdgeCaller:   topology.FrontEnd,
		EdgeCallee:   topology.Cart,
		ClampRef:     ref,
		ClampSize:    4,
	}, dur)
	if err != nil {
		return nil, err
	}
	eng, err := fault.New(r.c, plan)
	if err != nil {
		return nil, err
	}
	eng.Start()
	res := runArm(r, dur)
	res.faultWindows = len(eng.Windows())
	warm, end := sim.Time(10*time.Second), sim.Time(dur)
	p99, _ := r.e2e.Percentile(99, warm, end)
	res.line = fmt.Sprintf("=== %s / %s — p99 %.0f ms, goodput %.0f req/s, completed %d, failed %d, degraded %d",
		"sockshop", "Sora", p99.Seconds()*1000, r.e2e.GoodputRate(warm, end, goodputRTT),
		r.c.Completed(), r.c.Failed(), r.c.Degraded())
	res.check = containsLine(res.line)
	return res, nil
}
