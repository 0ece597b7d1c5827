// Command perfbench is the repository benchmark: it regenerates existing
// experiment units and reports host cost end to end (untraced) or split
// by layer (traced).
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload fig12 --seed 1 --seconds 36 --trace 0
//	perfbench --workload all              # every workload, one table
//
// An untraced run starts a few set-up-only child processes, then
// regenerates the workload's unit in fresh child processes, again and
// again for --seconds, cycling through the three unit seeds derived from
// --seed, and reports the medians of wall_s, cpu_s, peak_rss_mb and
// setup_s. The times are in reference-host seconds: host seconds divided
// by the host's slowdown, read from a fixed pointer chase between the
// regenerations (hostspeed.go). Every child runs with GOMAXPROCS=1.
// Every regeneration is checked: its output digest and
// simulated event count must match the pin in expected.json (the unit
// seeds of --seed 1) or, at any other seed, the run's first regeneration
// at that unit seed. A traced run (--trace 1) reports the per-layer
// metrics instead (see tracedRun) and writes the span file and CPU
// profile into --out. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"syscall"
	"time"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run() error {
	var (
		name    = flag.String("workload", "", "workload name, or 'all'")
		seed    = flag.Uint64("seed", 1, "run seed; a run regenerates the unit at the 3 unit seeds 3*seed+i (pinned for seed 1 in expected.json)")
		secs    = flag.Int("seconds", 36, "how long one run measures, in seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer split instead of the end-to-end metrics")
		out     = flag.String("out", ".bench_build/perfbench", "directory for span files, CPU profiles and scratch artifacts")
		child   = flag.String("child", "", "internal: set up ('setup'), run one regeneration ('unit') or the traced run ('traced') in this process")
		pinsOut = flag.Bool("print-pins", false, "regenerate every workload at the unit seeds of seed 1 and print expected.json")
	)
	flag.Parse()
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	budget := time.Duration(*secs) * time.Second

	switch {
	case *child != "":
		return runChild(*child, *name, *seed, budget, *out)
	case *pinsOut:
		return printPins(*out)
	case *name == "":
		return errors.New("pass --workload <name> or --workload all")
	}

	selected := workloads
	if *name != "all" {
		w, err := workloadByName(*name)
		if err != nil {
			return err
		}
		selected = []workloadDef{w}
	}
	res := result{Metrics: map[string]metric{}}
	for _, w := range selected {
		var (
			m                 map[string]metric
			attempted, failed int
			err               error
		)
		if *trace == 1 {
			m, attempted, failed, err = measureTraced(w, *seed, budget, *out)
		} else {
			m, attempted, failed, err = measure(w, *seed, budget, *out)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if *trace != 1 {
			fmt.Printf("%-15s error_rate %g (%d of %d unit runs failed)\n", w.name, float64(failed)/float64(attempted), failed, attempted)
		}
		res.Attempted += attempted
		res.Failed += failed
		for _, k := range sortedKeys(m) {
			fmt.Printf("%-15s %-30s %14.6g %s\n", w.name, k, m[k].Value, m[k].Unit)
			key := k
			if len(selected) > 1 {
				key = w.name + "." + k
			}
			res.Metrics[key] = m[k]
		}
	}
	res.Correct = res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runChild executes one child-process job and prints its JSON report.
func runChild(kind, name string, seed uint64, budget time.Duration, dir string) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	var report any
	switch kind {
	case "setup":
		report = setUpOnly(w, seed)
	case "unit":
		report = runUnit(w, seed, dir, nil)
	case "traced":
		if report, err = tracedRun(w, seed, budget, dir); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown child job %q", kind)
	}
	return json.NewEncoder(os.Stdout).Encode(report)
}

// spawn runs this binary as a child job and decodes its JSON report into
// into, returning the child's resource usage.
func spawn(into any, args ...string) (*syscall.Rusage, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var stdout bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	// One P: the unit is serial, and with a second P its wall time
	// depends on whether the host lets the GC's worker run beside it.
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child %v: %w", args, err)
	}
	if err := json.Unmarshal(stdout.Bytes(), into); err != nil {
		return nil, fmt.Errorf("child %v: %w", args, err)
	}
	ru, _ := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if ru == nil {
		return nil, errors.New("no resource usage for the child process")
	}
	return ru, nil
}

// setupProbes is how many set-up-only child processes an untraced run
// starts before its first regeneration and again after each one, so
// setup_s is a median of samples spread over the whole run (a burst
// taken at one moment reads that moment's host load) and of several
// samples even when one regeneration fills the budget.
const setupProbes = 4

// measure is the untraced run: it regenerates the unit in fresh child
// processes until the budget is spent (at least once, and never starting
// a regeneration that is not expected to finish in time) and returns the
// medians of the end-to-end metrics, times in reference-host seconds:
// divided by the median slowdown read before the set-up probes, before
// the first regeneration and after each one (see hostspeed.go). The
// medians in host seconds are printed beside them.
func measure(w workloadDef, seed uint64, budget time.Duration, dir string) (map[string]metric, int, int, error) {
	pins, err := loadPins()
	if err != nil {
		return nil, 0, 0, err
	}
	chk := newChecker(pins[w.name])
	seeds := unitSeeds(seed)
	probe := newSpeedProbe(refEntries)
	slow := []float64{probe.slowdown()}
	var wall, cpu, rss, setup, reps []float64
	probes := 0
	setUpProbes := func() {
		for i := 0; i < setupProbes; i++ {
			spawned := time.Now() //soravet:allow wallclock the benchmark budgets and measures host time
			var r unitResult
			_, err := spawn(&r, "--child", "setup", "--workload", w.name,
				"--seed", strconv.FormatUint(seeds[probes%len(seeds)], 10), "--out", dir)
			probes++
			if err == nil && r.Err != "" {
				err = errors.New(r.Err)
			}
			if err != nil {
				// The regenerations fail the same way and count it.
				fmt.Fprintf(os.Stderr, "perfbench: %s: set-up probe: %v\n", w.name, err)
				continue
			}
			setup = append(setup, float64(r.FirstCallNs-spawned.UnixNano())/1e9)
		}
	}
	setUpProbes()
	slow = append(slow, probe.slowdown())
	start := time.Now()                                                                  //soravet:allow wallclock the benchmark budgets and measures host time
	for len(reps) == 0 || time.Since(start).Seconds()+median(reps) <= budget.Seconds() { //soravet:allow wallclock the benchmark budgets and measures host time
		unitSeed := seeds[len(reps)%len(seeds)]
		spawned := time.Now() //soravet:allow wallclock the benchmark budgets and measures host time
		var r unitResult
		ru, err := spawn(&r, "--child", "unit", "--workload", w.name,
			"--seed", strconv.FormatUint(unitSeed, 10), "--out", dir)
		slow = append(slow, probe.slowdown())
		setUpProbes()
		reps = append(reps, time.Since(spawned).Seconds()) //soravet:allow wallclock the benchmark budgets and measures host time
		if err != nil {
			chk.record(err.Error())
			continue
		}
		if !chk.check(unitSeed, r) {
			continue
		}
		wall = append(wall, r.WallS)
		cpu = append(cpu, tvSeconds(ru.Utime)+tvSeconds(ru.Stime))
		rss = append(rss, float64(ru.Maxrss)/1024) // Linux reports KiB
		setup = append(setup, float64(r.FirstCallNs-spawned.UnixNano())/1e9)
	}
	for _, problem := range chk.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", w.name, problem)
	}
	for _, s := range seeds[:min(len(reps), len(seeds))] {
		if p, ok := chk.want[s]; ok {
			fmt.Printf("%-15s unit seed %d digest %s sim.events %d\n", w.name, s, p.Digest, p.Events)
		}
	}
	// One median over all readings, so a stray one cannot move the
	// result.
	s := median(slow)
	fmt.Printf("%-15s host: wall_s %.6g, cpu_s %.6g, setup_s %.6g; slowdown %.4g (%d regenerations)\n",
		w.name, median(wall), median(cpu), median(setup), s, len(wall))
	m, err := withUnits(endToEnd, map[string]float64{
		"wall_s":      median(wall) / s,
		"cpu_s":       median(cpu) / s,
		"peak_rss_mb": median(rss),
		"setup_s":     median(setup) / s,
	})
	return m, chk.attempted, chk.failed, err
}

// measureTraced runs the traced split in one child process.
func measureTraced(w workloadDef, seed uint64, budget time.Duration, dir string) (map[string]metric, int, int, error) {
	var rep tracedReport
	if _, err := spawn(&rep, "--child", "traced", "--workload", w.name,
		"--seed", strconv.FormatUint(seed, 10), "--seconds", strconv.Itoa(int(budget.Seconds())), "--out", dir); err != nil {
		return nil, 0, 0, err
	}
	for _, problem := range rep.Problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s (traced): %s\n", w.name, problem)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s span file: %s\n", w.name, rep.SpanFile)
	return rep.Metrics, rep.Attempted, rep.Failed, nil
}

// printPins regenerates every workload once at each unit seed of
// --seed 1 and prints the expected.json content.
func printPins(dir string) error {
	pins := map[string][]pin{}
	for _, w := range workloads {
		for _, s := range unitSeeds(1) {
			var r unitResult
			if _, err := spawn(&r, "--child", "unit", "--workload", w.name, "--seed", strconv.FormatUint(s, 10), "--out", dir); err != nil {
				return err
			}
			if r.Err != "" {
				return fmt.Errorf("%s seed %d: %s", w.name, s, r.Err)
			}
			pins[w.name] = append(pins[w.name], pin{Seed: s, Digest: r.Digest, Events: r.Events})
		}
	}
	data, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
