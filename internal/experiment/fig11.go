package experiment

import (
	"fmt"
	"io"
	"time"

	"sora/internal/workload"
)

// Figure 11 compares ConScale (Kubernetes-VPA hardware scaling + the
// throughput-based SCT model) against Sora (same VPA + the goodput-based
// SCG model) under the Large Variation trace. ConScale's latency-agnostic
// model over-allocates the Cart thread pool after scale-up, producing
// response-time spikes and goodput loss that Sora's deadline-aware
// allocation avoids.
func init() {
	register(Experiment{
		ID:    "fig11",
		Title: "Figure 11: ConScale vs Sora timelines under Large Variation",
		Run:   runFig11,
	})
}

func runFig11(p Params, w io.Writer) error {
	base := cartRunConfig{
		trace:       workload.LargeVariationTrace(),
		peakUsers:   1800,
		duration:    12 * time.Minute,
		sla:         goodputRTT,
		initThreads: 5,
		timelineInt: time.Second,
	}

	results, err := runCartStrategies(p, base, stratConScale, stratVPASora)
	if err != nil {
		return fmt.Errorf("fig11: %w", err)
	}
	conscale, sora := results[0], results[1]

	if err := printCartTimeline(p, w, "fig11_ConScale", conscale); err != nil {
		return err
	}
	if err := printCartTimeline(p, w, "fig11_Sora", sora); err != nil {
		return err
	}

	fmt.Fprintf(w, "\n%-14s %12s %12s %16s %15s\n", "strategy", "p95[ms]", "p99[ms]", "goodput[req/s]", "final threads")
	for _, row := range []struct {
		name string
		res  *cartRunResult
	}{{"ConScale", conscale}, {"Sora", sora}} {
		final := float64(base.initThreads)
		if tl := row.res.timeline; tl != nil {
			if s := tl.series("threads_limit"); len(s) > 0 {
				final = s[len(s)-1]
			}
		}
		fmt.Fprintf(w, "%-14s %12.0f %12.0f %16.0f %15.0f\n",
			row.name,
			row.res.p95.Seconds()*1000, row.res.p99.Seconds()*1000,
			row.res.goodput, final)
	}
	fmt.Fprintf(w, "\ngoodput improvement (Sora/ConScale): %.2fx  (paper reports up to 1.5x)\n",
		sora.goodput/conscale.goodput)
	fmt.Fprintf(w, "(paper: ConScale settles ~40 threads after scale-up where Sora limits ~30 —\n")
	fmt.Fprintf(w, " compare the two threads timelines / final allocations above)\n")
	return nil
}
