package main

import "fmt"

// A workload regenerates one existing experiment unit at a fixed
// duration scale, serially (Params.Parallelism = 1, Quiet), so the
// numbers measure the simulator rather than the runner's scheduling. The
// simulated users inside every unit are the repository's closed loop
// (workload.ClosedLoop). The seed is a benchmark argument; seed 1 is
// pinned in expected.json.
//
// Layer -> end-to-end metric -> workload map. The traced run reads the
// per-layer side; the shares are each module's share of the traced
// run's CPU profile at seed 1 on one P (table2 / fig12 / chaos_observed), and
// "little on" names the workload where the layer does least:
//
//	layer                 moves                  on                      little on       cpu_share
//	sim                   wall_s                 every workload          (none idle)     .16 / .16 / .17
//	psq                   wall_s                 fig12, table2           chaos_observed  .13 / .16 / .09
//	cluster               wall_s                 fig12                   (none idle)     .10 / .13 / .12
//	trace                 cpu_s / peak_rss_mb    table2 / fig12          chaos_observed  .04 / .02 / .02
//	metrics               wall_s                 table2                  chaos_observed  .05 / .04 / .03
//	core (+knee, stats)   wall_s                 table2                  fig12           .07 / .02 / .04
//	autoscaler            wall_s                 table2                  fig12           (step spans only)
//	workload, dist        wall_s                 table2                  (none idle)     .04 / .03 / .03
//	fault                 wall_s                 chaos_observed only                     (fault.windows)
//	telemetry, profile    wall_s                 chaos_observed only                     0 / 0 / .08
//	gc (Go runtime)       cpu_s, peak_rss_mb     fig12                   (none idle)     .40 / .44 / .41
//
// The fig3 sweep (36 static-pool points, no controller) is not a
// workload: one regeneration takes 9 s or more however small the scale
// (every point is floored at 20 s simulated), so a run holds too few of
// them for its medians to hold still on a shared host. The kernel, psq
// and request path it isolates run in every workload below.
//
// Two ceilings from the last profile (ROADMAP): the event heap is about
// 10-11% of end-to-end CPU, so a kernel-only change can save at most
// about that share of wall_s; Recommend is about 18% of table2 CPU,
// which caps what a controller-only change can save there.
type workloadDef struct {
	name  string
	unit  string  // experiment.ByID handle
	scale float64 // Params.DurationScale (every run is floored at 20 s simulated)
	// observed arms the telemetry recorder, flight recorder (1 s
	// windows) and profile aggregator, and writes their artifacts as
	// `sorabench -telemetry-dir -timeline` does.
	observed bool
	why      string
	// arm rebuilds the unit's representative arm from the public
	// constructors for the traced run.
	arm func(seed uint64, scale float64, sp *recorder) (*armResult, error)
}

var workloads = []workloadDef{
	{
		name: "fig12", unit: "fig12", scale: 0.06, arm: fig12SoraArm,
		// Social Network, 3,200 peak users, HPA and Sora,
		// light->heavy drift on Post Storage: 43 s simulated per arm.
		why: "deep span trees and long trace retention: the trace warehouse, metrics logs and GC do most of their work here",
	},
	{
		name: "table2", unit: "table2", scale: 0.1, arm: table2FIRMSoraArm,
		// 12 Sock Shop runs, six bursty traces x (FIRM, FIRM+Sora), 1,500
		// peak users: 72 s simulated per run.
		why: "most controller steps per simulated second on a small heap: SCG Recommend, critical-path walks and FIRM dominate",
	},
	{
		name: "chaos_observed", unit: "chaos", scale: 0.2, observed: true, arm: chaosSockShopSoraArm,
		// combo fault plan on both apps x (static, autoscaler, Sora): 36 s
		// simulated per run, with every observability writer armed.
		why: "only workload with timeouts, retries, breakers, failed requests and the telemetry/flight/profile writers",
	},
}

func workloadByName(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}
