package experiment

import (
	"fmt"
	"io"
	"time"

	"sora/internal/core"
	"sora/internal/sim"
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

	// Unified: one joint loop.
	runUnified := func(p Params) (*cartRunResult, error) {
		r, managed, err := newCartRig(p, initThreads, workload.TraceUsers(workload.SteepTriPhaseTrace(), dur, peakUsers))
		if err != nil {
			return nil, err
		}
		scg, err := core.NewSCG(r.c, r.mon, core.SCGConfig{SLA: goodputRTT})
		if err != nil {
			return nil, err
		}
		uni, err := core.NewUnified(r.c, core.UnifiedConfig{
			Model:   scg,
			Managed: []core.ManagedResource{managed},
			Service: topology.Cart,
			Ladder:  []float64{2, 4},
			SLO:     goodputRTT,
			Warmup:  30 * time.Second,
		})
		if err != nil {
			return nil, err
		}
		uni.Start()
		r.onStop(uni.Stop)
		r.run(dur)
		return &cartRunResult{
			runSummary: r.summarize(sim.Time(10*time.Second), sim.Time(dur), goodputRTT),
			events:     uni.Events(),
			hwChanges:  uni.HardwareChanges(),
		}, nil
	}

	// Both controller designs simulate independently; run them on the
	// worker pool.
	grp := p.Telemetry.Group("controllers")
	outcomes, err := parMap(p, 2, func(i int) (*cartRunResult, error) {
		if i == 0 {
			// Independent: the FIRM+Sora strategy of the comparative
			// experiments.
			return runCartStrategy(p.unitParams(grp.Unit(0, "independent")), cartRunConfig{
				strategy:    stratFIRMSora,
				trace:       workload.SteepTriPhaseTrace(),
				peakUsers:   peakUsers,
				duration:    12 * time.Minute,
				sla:         goodputRTT,
				initThreads: initThreads,
			})
		}
		return runUnified(p.unitParams(grp.Unit(1, "unified")))
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
		o    *cartRunResult
	}{
		{"independent (FIRM+Sora)", ind},
		{"unified (joint loop)", unified},
	} {
		fmt.Fprintf(w, "%-24s %10.0f %10.0f %16.0f %8d %8d\n",
			row.name,
			row.o.p95.Seconds()*1000, row.o.p99.Seconds()*1000,
			row.o.goodput, row.o.hwChanges, len(row.o.events))
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
