package experiment

import (
	"fmt"
	"io"
	"time"

	"sora/internal/autoscaler"
	"sora/internal/cluster"
	"sora/internal/core"
	"sora/internal/sim"
	"sora/internal/telemetry"
	"sora/internal/topology"
	"sora/internal/workload"
)

// The unified-controller experiment evaluates the paper's stated future
// work ("A unified controller can potentially be an ideal solution for
// this joint optimization problem", section 4.1): the independent design
// (FIRM scaling hardware, Sora's adapter chasing one control period
// later) against a single loop that moves CPU limit and thread pool
// together.
func init() {
	register(Experiment{
		ID:    "ext-unified",
		Title: "Extension: independent (FIRM+Sora) vs unified joint controller",
		Run:   runUnifiedExt,
	})
}

func runUnifiedExt(p Params, w io.Writer) error {
	dur := p.scale(12 * time.Minute)
	const (
		peakUsers   = 1500
		initThreads = 10
	)

	type outcome struct {
		p95, p99  time.Duration
		goodput   float64
		hwChanges int
		events    int
	}
	measure := func(r *rig, hw int, events int) *outcome {
		warm := sim.Time(10 * time.Second)
		end := sim.Time(dur)
		o := &outcome{hwChanges: hw, events: events}
		if p95, err := r.c.Completions().Percentile(95, warm, end); err == nil {
			o.p95 = p95
		}
		if p99, err := r.c.Completions().Percentile(99, warm, end); err == nil {
			o.p99 = p99
		}
		o.goodput = r.c.Completions().GoodputRate(warm, end, goodputRTT)
		return o
	}
	build := func(tel *telemetry.Recorder) (*rig, cluster.ResourceRef, error) {
		cfg := topology.DefaultSockShop()
		cfg.CartCores = 2
		cfg.CartThreads = initThreads
		app := topology.SockShop(cfg)
		ref := cluster.ResourceRef{Service: topology.Cart, Kind: cluster.PoolThreads}
		r, err := newRig(rigConfig{
			seed:         p.Seed,
			app:          app,
			mix:          topology.CartOnlyMix(app),
			refs:         []cluster.ResourceRef{ref},
			target:       workload.TraceUsers(workload.SteepTriPhaseTrace(), dur, peakUsers),
			tel:          tel,
			flightWindow: p.Timeline,
			prof:         p.Profile,
		})
		return r, ref, err
	}

	// Independent: FIRM hardware scaler wrapped by the Sora controller.
	runIndependent := func(tel *telemetry.Recorder) (*outcome, error) {
		rInd, ref, err := build(tel)
		if err != nil {
			return nil, err
		}
		firm, err := autoscaler.NewFIRM(rInd.c, autoscaler.FIRMConfig{
			Service: topology.Cart,
			SLO:     goodputRTT,
			Ladder:  []float64{2, 4},
		})
		if err != nil {
			return nil, err
		}
		scgInd, err := core.NewSCG(rInd.c, rInd.mon, core.SCGConfig{SLA: goodputRTT})
		if err != nil {
			return nil, err
		}
		if err := rInd.attachController(core.ControllerConfig{
			Model:   scgInd,
			Scaler:  firm,
			Managed: []core.ManagedResource{{Ref: ref, Min: 2, Max: 200}},
			Warmup:  30 * time.Second,
		}); err != nil {
			return nil, err
		}
		rInd.run(dur)
		return measure(rInd, rInd.ctl.HardwareChanges(), len(rInd.ctl.Events())), nil
	}

	// Unified: one joint loop.
	runUnified := func(tel *telemetry.Recorder) (*outcome, error) {
		rUni, refU, err := build(tel)
		if err != nil {
			return nil, err
		}
		scgUni, err := core.NewSCG(rUni.c, rUni.mon, core.SCGConfig{SLA: goodputRTT})
		if err != nil {
			return nil, err
		}
		uni, err := core.NewUnified(rUni.c, core.UnifiedConfig{
			Model:   scgUni,
			Managed: []core.ManagedResource{{Ref: refU, Min: 2, Max: 200}},
			Service: topology.Cart,
			Ladder:  []float64{2, 4},
			SLO:     goodputRTT,
			Warmup:  30 * time.Second,
		})
		if err != nil {
			return nil, err
		}
		uni.Start()
		rUni.onStop(uni.Stop)
		rUni.run(dur)
		return measure(rUni, uni.HardwareChanges(), len(uni.Events())), nil
	}

	// Both controller designs simulate independently; run them on the
	// worker pool.
	grp := p.Telemetry.Group("controllers")
	outcomes, err := parMap(p, 2, func(i int) (*outcome, error) {
		if i == 0 {
			return runIndependent(grp.Unit(0, "independent"))
		}
		return runUnified(grp.Unit(1, "unified"))
	})
	if err != nil {
		return err
	}
	ind, unified := outcomes[0], outcomes[1]

	fmt.Fprintf(w, "\nSteep Tri Phase, %v, peak %d users, SLO %v\n", dur, peakUsers, goodputRTT)
	fmt.Fprintf(w, "%-24s %10s %10s %16s %8s %8s\n",
		"controller", "p95[ms]", "p99[ms]", "goodput[req/s]", "hw-ops", "adapts")
	for _, row := range []struct {
		name string
		o    *outcome
	}{
		{"independent (FIRM+Sora)", ind},
		{"unified (joint loop)", unified},
	} {
		fmt.Fprintf(w, "%-24s %10.0f %10.0f %16.0f %8d %8d\n",
			row.name,
			row.o.p95.Seconds()*1000, row.o.p99.Seconds()*1000,
			row.o.goodput, row.o.hwChanges, row.o.events)
	}
	if unified.p99 > 0 && ind.p99 > 0 {
		fmt.Fprintf(w, "\np99 independent/unified: %.2fx  (>1 means the joint loop wins)\n",
			float64(ind.p99)/float64(unified.p99))
	}
	fmt.Fprintf(w, "(the unified loop rescales the pool in the same period as the CPU move,\n")
	fmt.Fprintf(w, " eliminating the window where freshly added cores run with a stale pool;\n")
	fmt.Fprintf(w, " note the naive proportional rescale can also over-commit right at the\n")
	fmt.Fprintf(w, " scale boundary — whether the joint loop wins is workload-dependent, which\n")
	fmt.Fprintf(w, " is presumably why the paper leaves the unified design as future work)\n")
	return nil
}
