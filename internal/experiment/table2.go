package experiment

import (
	"fmt"
	"io"
	"time"

	"sora/internal/workload"
)

// Table 2 compares FIRM against Sora (FIRM + SCG) across all six
// real-world bursty workload traces: 95th/99th percentile response time
// and average goodput against the 400 ms threshold.
func init() {
	register(Experiment{
		ID:    "table2",
		Title: "Table 2: FIRM vs Sora — tail latency and goodput over six traces",
		Run:   runTable2,
	})
}

func runTable2(p Params, w io.Writer) error {
	fmt.Fprintf(w, "\n%-18s %21s %21s %23s\n", "", "p95 RT [ms]", "p99 RT [ms]", "goodput-400ms [req/s]")
	fmt.Fprintf(w, "%-18s %10s %10s %10s %10s %11s %11s\n",
		"trace", "FIRM", "Sora", "FIRM", "Sora", "FIRM", "Sora")

	// All (trace, strategy) cells are independent simulations: fan the
	// whole grid out on the worker pool, then print rows in trace order.
	traces := workload.Traces()
	grp := p.Telemetry.Group("traces")
	type cell struct{ firm, sora *cartRunResult }
	cells, err := parMap(p, len(traces), func(ti int) (cell, error) {
		base := cartRunConfig{
			trace:       traces[ti],
			peakUsers:   1500,
			duration:    12 * time.Minute,
			sla:         goodputRTT,
			initThreads: 5,
		}
		results, err := runCartStrategies(p.unitParams(grp.Unit(ti, sanitize(traces[ti].Name))), base, stratFIRM, stratFIRMSora)
		if err != nil {
			return cell{}, fmt.Errorf("table2 %s: %w", traces[ti].Name, err)
		}
		return cell{firm: results[0], sora: results[1]}, nil
	})
	if err != nil {
		return err
	}

	var rows [][]float64
	var sumRatioP99, sumRatioGP float64
	n := 0
	for ti, tr := range traces {
		firm, sora := cells[ti].firm, cells[ti].sora
		fmt.Fprintf(w, "%-18s %10.0f %10.0f %10.0f %10.0f %11.0f %11.0f\n",
			tr.Name,
			firm.p95.Seconds()*1000, sora.p95.Seconds()*1000,
			firm.p99.Seconds()*1000, sora.p99.Seconds()*1000,
			firm.goodput, sora.goodput)
		rows = append(rows, []float64{
			float64(n),
			firm.p95.Seconds() * 1000, sora.p95.Seconds() * 1000,
			firm.p99.Seconds() * 1000, sora.p99.Seconds() * 1000,
			firm.goodput, sora.goodput,
		})
		if sora.p99 > 0 {
			sumRatioP99 += float64(firm.p99) / float64(sora.p99)
		}
		if firm.goodput > 0 {
			sumRatioGP += sora.goodput / firm.goodput
		}
		n++
	}
	if n > 0 {
		fmt.Fprintf(w, "\naverage p99 reduction (FIRM/Sora): %.2fx  (paper: 2.2x average, up to 2.5x)\n", sumRatioP99/float64(n))
		fmt.Fprintf(w, "average goodput improvement (Sora/FIRM): %.2fx\n", sumRatioGP/float64(n))
	}
	return writeCSV(p, "table2",
		[]string{"trace_idx", "p95_firm_ms", "p95_sora_ms", "p99_firm_ms", "p99_sora_ms", "gp_firm_rps", "gp_sora_rps"},
		rows)
}
