package experiment

import (
	"fmt"
	"io"
	"time"

	"sora/internal/workload"
)

// Figure 10 compares FIRM (hardware-only vertical scaling) against Sora
// (FIRM + SCG concurrency adaptation) under the Steep Tri Phase workload
// trace: FIRM scales the Cart pod from 2 to 4 cores during the overload
// phases, but the static thread pool leaves the added cores underused,
// while Sora re-adapts the pool and stabilizes response time.
func init() {
	register(Experiment{
		ID:    "fig10",
		Title: "Figure 10: FIRM vs Sora timelines under Steep Tri Phase",
		Run:   runFig10,
	})
}

func runFig10(p Params, w io.Writer) error {
	base := cartRunConfig{
		trace:       workload.SteepTriPhaseTrace(),
		peakUsers:   1500,
		duration:    12 * time.Minute,
		sla:         goodputRTT,
		initThreads: 5, // the paper's pre-profiled setting (our Fig 3(d) 2-core knee)
		timelineInt: time.Second,
	}

	// Both strategy runs are independent simulations; run them on the
	// worker pool.
	results, err := runCartStrategies(p, base, stratFIRM, stratFIRMSora)
	if err != nil {
		return fmt.Errorf("fig10: %w", err)
	}
	firm, sora := results[0], results[1]

	if err := printCartTimeline(p, w, "fig10_FIRM", firm); err != nil {
		return err
	}
	if err := printCartTimeline(p, w, "fig10_Sora", sora); err != nil {
		return err
	}

	fmt.Fprintf(w, "\n%-14s %12s %12s %16s %16s\n", "strategy", "p95[ms]", "p99[ms]", "goodput[req/s]", "thruput[req/s]")
	for _, row := range []struct {
		name string
		res  *cartRunResult
	}{{"FIRM", firm}, {"Sora", sora}} {
		fmt.Fprintf(w, "%-14s %12.0f %12.0f %16.0f %16.0f\n",
			row.name,
			row.res.p95.Seconds()*1000, row.res.p99.Seconds()*1000,
			row.res.goodput, row.res.thru)
	}
	if firm.p99 > 0 {
		fmt.Fprintf(w, "\np99 improvement (FIRM/Sora): %.2fx  (paper reports up to 2.5x across traces)\n",
			float64(firm.p99)/float64(sora.p99))
	}
	fmt.Fprintf(w, "goodput improvement (Sora/FIRM): %.2fx\n", sora.goodput/firm.goodput)
	return nil
}
