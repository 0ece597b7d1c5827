package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// def names one metric and its unit.
type def struct{ name, unit string }

// endToEnd are the metrics of an untraced run (BENCHMARK.json
// end_to_end), medians over the run's unit regenerations.
var endToEnd = []def{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// cpuShareModules are the modules whose share of the traced run's CPU
// profile is reported as <module>.cpu_share.
var cpuShareModules = []string{
	"sim", "psq", "cluster", "trace", "metrics", "core", "knee", "stats",
	"workload", "dist", "fault", "telemetry", "profile", "gc",
}

// perLayer are the metrics of a traced run (BENCHMARK.json per_layer).
var perLayer = append([]def{
	{"sim.events", "count"},
	{"sim.runs", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.self_s", "s"},
	{"psq.busy_core_s", "core_s"},
	{"cluster.completed", "count"},
	{"cluster.failed", "count"},
	{"cluster.retries", "count"},
	{"cluster.timed_out", "count"},
	{"cluster.spans", "count"},
	{"cluster.submit_s", "s"},
	{"trace.added", "count"},
	{"trace.evicted", "count"},
	{"trace.retained_peak", "count"},
	{"trace.window_s", "s"},
	{"trace.critical_path_s", "s"},
	{"metrics.log_len_peak", "count"},
	{"core.recommend_calls", "count"},
	{"core.recommend_s", "s"},
	{"core.adaptations", "count"},
	{"autoscaler.step_calls", "count"},
	{"autoscaler.step_s", "s"},
	{"autoscaler.hw_changes", "count"},
	{"workload.issued", "count"},
	{"fault.windows", "count"},
	{"telemetry.write_s", "s"},
	{"telemetry.bytes", "bytes"},
	{"gc.cpu_s", "s"},
	{"gc.cycles", "count"},
	{"gc.alloc_mb", "MB"},
	{"gc.alloc_objects", "count"},
	{"gc.live_heap_peak_mb", "MB"},
	{"harness.tracing_overhead_frac", "ratio"},
}, shareDefs()...)

func shareDefs() []def {
	out := make([]def, len(cpuShareModules))
	for i, m := range cpuShareModules {
		out[i] = def{m + ".cpu_share", "ratio"}
	}
	return out
}

// withUnits pairs each defined metric with its value; a defined metric
// missing from values is an error, so no metric is silently dropped.
func withUnits(defs []def, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, nil
}

// tracedReport is what the traced child process prints for its parent.
type tracedReport struct {
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	SpanFile  string            `json:"span_file"`
}

// gcCounters reads the runtime's cumulative GC CPU, cycles, allocated
// bytes and allocated objects.
func gcCounters() [4]float64 {
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
	}
	rtmetrics.Read(s)
	var out [4]float64
	for i, v := range s {
		switch v.Value.Kind() {
		case rtmetrics.KindFloat64:
			out[i] = v.Value.Float64()
		case rtmetrics.KindUint64:
			out[i] = float64(v.Value.Uint64())
		}
	}
	return out
}

// heapWatch samples the live heap (as of the last GC) until closed and
// keeps the peak.
type heapWatch struct {
	stop, done chan struct{}
	peak       uint64
}

func watchLiveHeap() *heapWatch {
	hw := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(hw.done)
		s := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond) //soravet:allow wallclock the live-heap sampler polls on host time
		defer tick.Stop()
		for {
			rtmetrics.Read(s)
			if s[0].Value.Kind() == rtmetrics.KindUint64 {
				hw.peak = max(hw.peak, s[0].Value.Uint64())
			}
			select {
			case <-hw.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return hw
}

// close stops the sampler, waits for it, and returns the peak in bytes.
func (hw *heapWatch) close() uint64 {
	close(hw.stop)
	<-hw.done
	return hw.peak
}

// tracedRun is the traced run of one workload, executed in a child
// process so the CPU profile and GC counters see only the workload:
//
//  1. the unit is regenerated under runtime/pprof, repeated for about half
//     the budget; the first regeneration also gives the GC deltas, the
//     live-heap peak, sim.events and the artifact-writer spans;
//  2. the workload's representative arm is rebuilt from the public
//     constructors and run untraced and traced in pairs for the rest of
//     the budget; the first traced arm gives the per-layer spans and
//     counts, and the pairs give harness.tracing_overhead_frac.
//
// The traced run uses the first unit seed of seed. Every unit
// regeneration is checked against the pin; the traced arm
// must process as many events as the untraced one and print the same
// p99/goodput line as the unit.
func tracedRun(w workloadDef, seed uint64, budget time.Duration, dir string) (*tracedReport, error) {
	pins, err := loadPins()
	if err != nil {
		return nil, err
	}
	chk := newChecker(pins[w.name])
	seed = unitSeeds(seed)[0]
	sp := newRecorder()
	values := map[string]float64{}

	start := time.Now() //soravet:allow wallclock the traced run budgets host time
	profPath := filepath.Join(dir, w.name+".cpu.pprof")
	pf, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(pf); err != nil {
		pf.Close()
		return nil, err
	}
	watch := watchLiveHeap()
	gc0 := gcCounters()
	first := runUnit(w, seed, dir, sp)
	gc1 := gcCounters()
	values["gc.live_heap_peak_mb"] = float64(watch.close()) / (1 << 20)
	chk.check(seed, first)
	for time.Since(start) < budget/2 { //soravet:allow wallclock the traced run budgets host time
		chk.check(seed, runUnit(w, seed, dir, nil))
	}
	pprof.StopCPUProfile()
	if err := pf.Close(); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(profPath)
	if err != nil {
		return nil, err
	}
	samples, err := parseCPUProfile(data)
	if err != nil {
		return nil, err
	}
	byModule, cpuTotal := attribute(samples)
	for _, m := range cpuShareModules {
		if cpuTotal > 0 {
			values[m+".cpu_share"] = byModule[m] / cpuTotal
		} else {
			values[m+".cpu_share"] = 0
		}
	}
	values["gc.cpu_s"] = gc1[0] - gc0[0]
	values["gc.cycles"] = gc1[1] - gc0[1]
	values["gc.alloc_mb"] = (gc1[2] - gc0[2]) / (1 << 20)
	values["gc.alloc_objects"] = gc1[3] - gc0[3]
	values["sim.events"] = float64(first.Events)
	values["sim.runs"] = float64(first.Runs)
	values["sim.ns_per_event"] = 0
	if first.Events > 0 {
		values["sim.ns_per_event"] = first.WallS * 1e9 / float64(first.Events)
	}
	values["telemetry.bytes"] = float64(first.ArtifactBytes)

	// Rebuilt arm: untraced/traced pairs for the rest of the budget.
	var plain, traced []float64
	var arm *armResult
	var pair time.Duration
	for len(plain) == 0 || time.Since(start)+pair <= budget { //soravet:allow wallclock the traced run budgets host time
		pairStart := time.Now() //soravet:allow wallclock the traced run budgets host time
		a0, err := w.arm(seed, w.scale, nil)
		if err != nil {
			return nil, err
		}
		asp := newRecorder()
		if arm == nil {
			asp = sp
		}
		a1, err := w.arm(seed, w.scale, asp)
		if err != nil {
			return nil, err
		}
		pair = time.Since(pairStart) //soravet:allow wallclock the traced run budgets host time
		plain = append(plain, a0.wall.Seconds())
		traced = append(traced, a1.wall.Seconds())
		if arm != nil {
			continue
		}
		arm = a1
		var problem string
		switch {
		case a1.events != a0.events:
			problem = fmt.Sprintf("traced arm processed %d events, untraced %d", a1.events, a0.events)
		case a1.line != a0.line:
			problem = fmt.Sprintf("traced arm line %q differs from untraced %q", a1.line, a0.line)
		case first.Err != "":
			problem = "no unit output to compare the arm with"
		default:
			if err := a1.check(first.output); err != nil {
				problem = err.Error()
			}
		}
		chk.record(problem)
	}
	values["harness.tracing_overhead_frac"] = median(traced)/median(plain) - 1
	armValues(values, arm, totals(sp.spans))

	spanPath := filepath.Join(dir, w.name+".spans.tsv")
	if err := createWith(spanPath, func(f io.Writer) error { return writeSpans(f, sp.spans) }); err != nil {
		return nil, err
	}
	m, err := withUnits(perLayer, values)
	if err != nil {
		return nil, err
	}
	return &tracedReport{
		Attempted: chk.attempted,
		Failed:    chk.failed,
		Problems:  chk.problems,
		Metrics:   m,
		SpanFile:  spanPath,
	}, nil
}

// armValues fills the per-layer metrics read from the traced arm: its
// span totals and the counters of the layers it drove.
func armValues(values map[string]float64, arm *armResult, tot map[string]*spanTotal) {
	r := arm.rig
	_, runSelf := seconds(tot, "sim.run_until")
	_, drainSelf := seconds(tot, "sim.drain")
	values["sim.self_s"] = runSelf + drainSelf
	values["psq.busy_core_s"] = r.busyCoreSeconds()
	values["cluster.completed"] = float64(r.c.Completed())
	values["cluster.failed"] = float64(r.c.Failed())
	values["cluster.retries"] = float64(r.c.Retries())
	values["cluster.timed_out"] = float64(r.c.TimedOut())
	values["cluster.spans"] = float64(r.counts.spans)
	values["cluster.submit_s"], _ = seconds(tot, "cluster.submit")
	values["trace.added"] = float64(r.c.Warehouse().Added())
	values["trace.evicted"] = float64(r.c.Warehouse().Evicted())
	values["trace.retained_peak"] = float64(r.counts.retainedPeak)
	values["trace.window_s"], _ = seconds(tot, "probe.trace_window")
	values["trace.critical_path_s"], _ = seconds(tot, "probe.critical_path")
	values["metrics.log_len_peak"] = float64(r.counts.logLenPeak)
	values["core.recommend_calls"] = float64(r.counts.recommendCalls)
	values["core.recommend_s"], _ = seconds(tot, "core.recommend")
	values["core.adaptations"] = 0
	if r.ctl != nil {
		values["core.adaptations"] = float64(len(r.ctl.Events()))
	}
	values["autoscaler.step_calls"] = float64(r.counts.stepCalls)
	values["autoscaler.step_s"], _ = seconds(tot, "autoscaler.step")
	values["autoscaler.hw_changes"] = float64(r.counts.hwChanges)
	values["workload.issued"] = float64(r.loop.Issued())
	values["fault.windows"] = float64(arm.faultWindows)
	var write float64
	for _, name := range []string{"telemetry.write_files", "telemetry.write_timeline", "profile.write_table", "profile.write_folded"} {
		t, _ := seconds(tot, name)
		write += t
	}
	values["telemetry.write_s"] = write
}
