package experiment

import (
	"fmt"
	"io"
	"time"

	"sora/internal/autoscaler"
	"sora/internal/core"
	"sora/internal/sim"
	"sora/internal/topology"
	"sora/internal/workload"
)

// strategy identifies one scaling-management configuration in the
// comparative experiments.
type strategy int

const (
	// stratFIRM is the hardware-only FIRM vertical scaler (no soft
	// resource adaptation).
	stratFIRM strategy = iota + 1
	// stratFIRMSora is FIRM + Sora's SCG-driven concurrency adapter.
	stratFIRMSora
	// stratConScale is Kubernetes-VPA hardware scaling + the SCT
	// (throughput) concurrency adapter.
	stratConScale
	// stratVPASora is Kubernetes-VPA hardware scaling + SCG.
	stratVPASora
)

// strategySpecs is the strategy table: each strategy's output name, the
// hardware scaler on Cart (VPA, or else FIRM) and the concurrency model
// on top of it.
var strategySpecs = [...]struct {
	name  string
	vpa   bool
	model modelKind
}{
	stratFIRM:     {"FIRM", false, modelNone},
	stratFIRMSora: {"Sora(FIRM)", false, modelSCG},
	stratConScale: {"ConScale", true, modelSCT},
	stratVPASora:  {"Sora(VPA)", true, modelSCG},
}

// String names the strategy for output.
func (s strategy) String() string {
	if s < stratFIRM || int(s) >= len(strategySpecs) {
		return fmt.Sprintf("strategy(%d)", int(s))
	}
	return strategySpecs[s].name
}

// cartRunConfig parameterizes one trace-driven Cart run.
type cartRunConfig struct {
	strategy  strategy
	trace     workload.Trace
	peakUsers int
	duration  time.Duration
	sla       time.Duration // end-to-end SLO driving FIRM and SCG
	// initThreads is the starting Cart thread pool (the paper
	// pre-profiles the 2-core optimum before each run; ours is ~10).
	initThreads int
	timelineInt time.Duration // 0 disables timeline recording
	// gpThreshold is the end-to-end goodput threshold for the reported
	// metric; zero selects goodputRTT (400 ms).
	gpThreshold time.Duration
}

// cartRunResult carries everything the comparative tables/figures need:
// the summary past warmup (goodput against the run's gpThreshold).
type cartRunResult struct {
	runSummary
	timeline  *timeline
	events    []core.AdaptationEvent
	hwChanges int
}

// goodputRTT is the end-to-end goodput threshold of Table 2/Figures
// 10-12 ("Goodput (RTT=400ms)").
const goodputRTT = 400 * time.Millisecond

// runCartStrategy executes one 12-minute (scaled) trace-driven run of the
// Cart scenario under the given strategy and returns tail latency,
// goodput and the recorded timeline.
func runCartStrategy(p Params, rc cartRunConfig) (*cartRunResult, error) {
	dur := p.scale(rc.duration)
	if rc.gpThreshold <= 0 {
		rc.gpThreshold = goodputRTT
	}
	r, managed, err := newCartRig(p, rc.initThreads, workload.TraceUsers(rc.trace, dur, rc.peakUsers))
	if err != nil {
		return nil, err
	}
	spec := strategySpecs[rc.strategy]
	var hw core.HardwareScaler
	if spec.vpa {
		hw, err = autoscaler.NewVPA(r.c, autoscaler.VPAConfig{
			Service:  topology.Cart,
			MinCores: 2,
			MaxCores: 6,
		})
	} else {
		hw, err = cartFIRM(r, rc.sla)
	}
	if err != nil {
		return nil, err
	}
	if err := r.manage(hw, spec.model, core.SCGConfig{SLA: rc.sla, Window: 60 * time.Second}, managed, 30*time.Second); err != nil {
		return nil, err
	}

	// Timeline: response time (mean per tick), goodput, CPU util and
	// limit, running threads — the four panes of Figures 10-11.
	if rc.timelineInt > 0 {
		cart, err := r.c.Service(topology.Cart)
		if err != nil {
			return nil, err
		}
		tl := newTimeline(rc.timelineInt)
		tl.column("rt_ms", r.meanRTColumn())
		tl.column("goodput_rps", r.goodputColumn(rc.timelineInt, rc.gpThreshold))
		tl.column("cart_cpu_util_pct", cpuUtilColumn(cart))
		tl.column("cart_cpu_limit_pct", func() float64 { return cart.TotalCores() * 100 })
		tl.column("threads_limit", r.poolSizeColumn(managed.Ref))
		tl.column("threads_running", r.poolInUseColumn(managed.Ref))
		r.timeline = tl
	}

	r.run(dur)

	res := &cartRunResult{
		runSummary: r.summarize(sim.Time(10*time.Second), sim.Time(dur), rc.gpThreshold),
		timeline:   r.timeline,
	}
	if r.ctl != nil {
		res.events = r.ctl.Events()
		res.hwChanges = r.ctl.HardwareChanges()
	}
	return res, nil
}

// runCartStrategies executes one independent trace-driven run per
// strategy on the worker pool, with every run deriving from the same base
// config. Results are in strategy-argument order.
func runCartStrategies(p Params, base cartRunConfig, strategies ...strategy) ([]*cartRunResult, error) {
	grp := p.Telemetry.Group("strategies")
	return parMap(p, len(strategies), func(i int) (*cartRunResult, error) {
		rc := base
		rc.strategy = strategies[i]
		res, err := runCartStrategy(p.unitParams(grp.Unit(i, sanitize(strategies[i].String()))), rc)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", strategies[i], err)
		}
		return res, nil
	})
}

// printCartTimeline renders the figure's panes as ASCII charts plus the
// adaptation event log.
func printCartTimeline(p Params, w io.Writer, label string, res *cartRunResult) error {
	if res.timeline == nil {
		return nil
	}
	if !p.Quiet {
		plotASCII(w, label+" — response time [ms] & goodput [req/s]", 96, 10,
			namedSeries{name: "rt_ms", values: res.timeline.series("rt_ms"), mark: '*'},
			namedSeries{name: "goodput_rps", values: res.timeline.series("goodput_rps"), mark: 'o'},
		)
		plotASCII(w, label+" — cart CPU util vs limit [% of core]", 96, 8,
			namedSeries{name: "util", values: res.timeline.series("cart_cpu_util_pct"), mark: '*'},
			namedSeries{name: "limit", values: res.timeline.series("cart_cpu_limit_pct"), mark: '-'},
		)
		plotASCII(w, label+" — cart threads (pool limit vs running)", 96, 8,
			namedSeries{name: "limit", values: res.timeline.series("threads_limit"), mark: '-'},
			namedSeries{name: "running", values: res.timeline.series("threads_running"), mark: '*'},
		)
	}
	if len(res.events) > 0 {
		fmt.Fprintf(w, "%s adaptation events:\n", label)
		for _, e := range res.events {
			fmt.Fprintf(w, "  %s\n", e)
		}
	}
	return writeCSV(p, "timeline_"+sanitize(label), res.timeline.header(), res.timeline.rows)
}

func sanitize(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}
