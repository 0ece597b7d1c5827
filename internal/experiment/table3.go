package experiment

import (
	"fmt"
	"io"
	"time"

	"sora/internal/workload"
)

// Table 3 compares the goodput of ConScale (VPA + SCT) and Sora
// (VPA + SCG) across the six traces at two SLA thresholds (the paper's
// 250 ms and 500 ms rows).
func init() {
	register(Experiment{
		ID:    "table3",
		Title: "Table 3: ConScale vs Sora goodput over six traces at two SLAs",
		Run:   runTable3,
	})
}

func runTable3(p Params, w io.Writer) error {
	slas := []time.Duration{250 * time.Millisecond, 500 * time.Millisecond}
	traces := workload.Traces()

	// The full (SLA, trace, strategy) grid is independent simulations:
	// fan it out on the worker pool, then print in (SLA, trace) order.
	type cell struct{ conscale, sora *cartRunResult }
	grp := p.Telemetry.Group("grid")
	cells, err := parMap(p, len(slas)*len(traces), func(i int) (cell, error) {
		sla, tr := slas[i/len(traces)], traces[i%len(traces)]
		base := cartRunConfig{
			trace:       tr,
			peakUsers:   1800,
			duration:    12 * time.Minute,
			sla:         sla,
			initThreads: 5,
			gpThreshold: sla,
		}
		unit := grp.Unit(i, fmt.Sprintf("sla-%dms-%s", sla/time.Millisecond, sanitize(tr.Name)))
		results, err := runCartStrategies(p.unitParams(unit), base, stratConScale, stratVPASora)
		if err != nil {
			return cell{}, fmt.Errorf("table3 %s @%v: %w", tr.Name, sla, err)
		}
		return cell{conscale: results[0], sora: results[1]}, nil
	})
	if err != nil {
		return err
	}

	var rows [][]float64
	for si, sla := range slas {
		fmt.Fprintf(w, "\nSLA threshold %v — goodput [req/s]\n", sla)
		fmt.Fprintf(w, "%-18s %12s %12s %8s\n", "trace", "ConScale", "Sora", "ratio")
		var sumRatio float64
		n := 0
		for ti, tr := range traces {
			c := cells[si*len(traces)+ti]
			gpCS := c.conscale.goodput
			gpSora := c.sora.goodput
			ratio := 0.0
			if gpCS > 0 {
				ratio = gpSora / gpCS
				sumRatio += ratio
				n++
			}
			fmt.Fprintf(w, "%-18s %12.0f %12.0f %8.2f\n", tr.Name, gpCS, gpSora, ratio)
			rows = append(rows, []float64{sla.Seconds() * 1000, float64(ti), gpCS, gpSora})
		}
		if n > 0 {
			fmt.Fprintf(w, "average goodput ratio (Sora/ConScale): %.2fx  (paper: ~1.1-1.5x)\n", sumRatio/float64(n))
		}
	}
	return writeCSV(p, "table3", []string{"sla_ms", "trace_idx", "gp_conscale_rps", "gp_sora_rps"}, rows)
}
