package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"testing"
	"time"
)

// benchmarkFile is the subset of BENCHMARK.json the tests compare
// against the benchmark's metric tables.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkFile(t)
	check := func(kind string, defs []def, got []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark emits %d", kind, len(got), len(defs))
		}
		want := map[string]string{}
		for _, d := range defs {
			want[d.name] = d.unit
		}
		for _, m := range got {
			if u, ok := want[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: BENCHMARK.json metric %s [%s], the benchmark has [%s] (listed: %v)", kind, m.Name, m.Unit, u, ok)
			}
		}
	}
	check("end_to_end", endToEnd, b.EndToEnd)
	check("per_layer", perLayer, b.PerLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, the benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		got := pins[w.name]
		for i, s := range unitSeeds(1) {
			if i >= len(got) || got[i].Seed != s || got[i].Digest == "" || got[i].Events == 0 {
				t.Errorf("workload %s has no pin for unit seed %d in expected.json", w.name, s)
			}
		}
	}
}

func TestWithUnitsEmitsEveryMetric(t *testing.T) {
	values := map[string]float64{}
	for i, d := range perLayer {
		values[d.name] = float64(i)
	}
	got, err := withUnits(perLayer, values)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range perLayer {
		if m, ok := got[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("metric %s: got %+v, want unit %s", d.name, m, d.unit)
		}
	}
	delete(values, "sim.events")
	if _, err := withUnits(perLayer, values); err == nil {
		t.Error("a metric missing from the measured values must be an error")
	}
}

// TestTracedRunEmitsEveryMetric runs the traced split end to end on a
// floor-length table2 (20 s simulated per run) at an unpinned seed.
func TestTracedRunEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates a unit")
	}
	w, err := workloadByName("table2")
	if err != nil {
		t.Fatal(err)
	}
	w.scale = 0.001
	rep, err := tracedRun(w, 2, time.Second, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 || rep.Attempted < 2 {
		t.Fatalf("attempted %d, failed %d: %v", rep.Attempted, rep.Failed, rep.Problems)
	}
	for _, d := range perLayer {
		m, ok := rep.Metrics[d.name]
		if !ok || m.Unit != d.unit {
			t.Errorf("metric %s: got %+v, want unit %s", d.name, m, d.unit)
		}
	}
	for _, name := range []string{"sim.events", "cluster.completed", "autoscaler.step_calls", "sim.self_s"} {
		if rep.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0 on table2", name, rep.Metrics[name].Value)
		}
	}
	if _, err := os.Stat(rep.SpanFile); err != nil {
		t.Errorf("span file: %v", err)
	}
}

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120}, // runs past root
		{ID: 4, Parent: 1, Name: "d", Start: 15, End: 20},  // grandchild
	}
	self := selfTimes(spans)
	want := []int64{100 - 50 - 10, 30 - 5, 30, 30, 5}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %s: self %d, want %d", spans[i].Name, self[i], want[i])
		}
	}
	tot := totals(spans)
	if tot["root"].selfNs != 40 || tot["a"].count != 1 {
		t.Errorf("totals: %+v", tot["root"])
	}
}

func TestRecorderNestsByCallOrder(t *testing.T) {
	r := newRecorder()
	a := r.start("a")
	b := r.start("b")
	r.end(b)
	c := r.start("c")
	r.end(c)
	r.end(a)
	if r.spans[b].Parent != a || r.spans[c].Parent != a || r.spans[a].Parent != -1 {
		t.Fatalf("parents: %+v", r.spans)
	}
	var nilRec *recorder
	nilRec.end(nilRec.start("x")) // a nil recorder records nothing
	var buf bytes.Buffer
	if err := writeSpans(&buf, r.spans); err != nil {
		t.Fatal(err)
	}
	if got := bytes.Count(buf.Bytes(), []byte("\n")); got != 4 {
		t.Errorf("span file has %d lines, want header + 3", got)
	}
}

func TestCorruptedDigestCountsAsFailedRun(t *testing.T) {
	good := unitResult{Digest: "abc", Events: 10}
	c := newChecker([]pin{{Seed: 3, Digest: "abc", Events: 10}})
	results := []unitResult{
		good,
		{Digest: "abd", Events: 10}, // corrupted output
		{Digest: "abc", Events: 11}, // event count drift
		{Err: "boom"},
		good,
	}
	for _, r := range results {
		c.check(3, r)
	}
	if c.attempted != 5 || c.failed != 3 || len(c.problems) != 3 {
		t.Fatalf("attempted %d failed %d problems %v", c.attempted, c.failed, c.problems)
	}

	// An unpinned seed takes its first run as the reference.
	c.check(7, unitResult{Digest: "xyz", Events: 3})
	c.check(7, unitResult{Digest: "xyz", Events: 3})
	c.check(7, unitResult{Digest: "abc", Events: 3})
	if c.attempted != 8 || c.failed != 4 {
		t.Fatalf("unpinned: attempted %d failed %d", c.attempted, c.failed)
	}
	if got := unitSeeds(2); len(got) != seedsPerRun || got[0] != 6 || got[2] != 8 {
		t.Errorf("unitSeeds(2) = %v", got)
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); n++ {
	}
	return n
}

func TestCPUProfileAttribution(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Skip("profile recorded no samples")
	}
	byModule, total := attribute(samples)
	if total <= 0 || byModule["harness"] < total/2 {
		t.Errorf("harness share %.3f of %.3f s, want most of it", byModule["harness"], total)
	}

	for fn, want := range map[string]string{
		"sora/internal/sim.(*Kernel).Step":              "sim",
		"sora/internal/cluster.(*Cluster).Submit.func1": "cluster",
		"runtime.mallocgc":                              "gc",
		"runtime.gcBgMarkWorker":                        "gc",
		"runtime.memmove":                               "",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
	// A runtime leaf is charged to its nearest owned caller.
	byModule, _ = attribute([]cpuSample{{stack: []string{"runtime.memmove", "sora/internal/metrics.(*CompletionLog).Prune"}, cpuNs: 1e7}})
	if byModule["metrics"] != 0.01 {
		t.Errorf("memmove under Prune charged to %v", byModule)
	}
}

func TestArmLineChecks(t *testing.T) {
	out := "Figure 3(a) x\n      size goodput\n       200   1500   1.00   40   0.91\n"
	if err := fieldsMatch("Figure 3(a)", "200", field{1, "1500"}, field{3, "40"})(out); err != nil {
		t.Error(err)
	}
	if err := fieldsMatch("Figure 3(a)", "200", field{1, "1501"})(out); err == nil {
		t.Error("a differing field must fail the check")
	}
	if err := containsLine("Sora 1 2")("HPA 1 2\nSora 1 2\n"); err != nil {
		t.Error(err)
	}
	if err := containsLine("Sora 1 2")("Sora 1 23\n"); err == nil {
		t.Error("a partial line must fail the check")
	}
}

func TestSpeedProbeChasesOneCycle(t *testing.T) {
	const n = 1000
	p := newSpeedProbe(n)
	seen := make([]bool, n)
	at := uint32(0)
	for i := 0; i < n; i++ {
		if seen[at] {
			t.Fatalf("entry %d revisited after %d steps", at, i)
		}
		seen[at] = true
		at = p.next[at]
	}
	if at != 0 {
		t.Fatalf("the chase did not close its cycle after %d steps", n)
	}
	if s := p.slowdown(); !(s > 0) {
		t.Fatalf("slowdown %v, want a positive reading", s)
	}
}
