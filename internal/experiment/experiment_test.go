package experiment

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sora/internal/compare"
)

var update = flag.Bool("update", false, "rewrite testdata/smoke.digests with the current output")

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"ablation-deadline", "ablation-degree", "ablation-localize", "ablation-model", "chaos", "ctrlplane",
		"ext-unified",
		"fig1", "fig10", "fig11", "fig12", "fig3", "fig4", "fig7", "fig9",
		"table1", "table2", "table3",
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Errorf("registry[%d] = %q, want %q", i, e.ID, want[i])
		}
		if e.Title == "" || e.Run == nil {
			t.Errorf("experiment %q missing title or runner", e.ID)
		}
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("fig10")
	if err != nil {
		t.Fatal(err)
	}
	if e.ID != "fig10" {
		t.Errorf("ByID returned %q", e.ID)
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("expected error for unknown id")
	}
}

func TestParamsScale(t *testing.T) {
	p := Params{DurationScale: 0.5}
	if got := p.scale(10 * time.Minute); got != 5*time.Minute {
		t.Errorf("scale(10m) = %v, want 5m", got)
	}
	// Floor at 20s.
	if got := p.scale(30 * time.Second); got != 20*time.Second {
		t.Errorf("scale(30s) = %v, want floor 20s", got)
	}
	// Zero/out-of-range selects full length.
	if got := (Params{}).scale(time.Minute); got != time.Minute {
		t.Errorf("unscaled = %v, want 1m", got)
	}
	if got := (Params{DurationScale: 7}).scale(time.Minute); got != time.Minute {
		t.Errorf("scale>1 = %v, want clamped to full", got)
	}
}

// TestExperimentsSmoke executes every registered experiment at the
// minimum duration scale. This is an integration test of the entire
// stack (kernel, cluster, models, autoscalers, harness). Results at this
// scale are noisy, so no figure is asserted; instead every run's stdout
// (ASCII charts included) and every CSV it writes are fingerprinted and
// compared with testdata/smoke.digests, so a refactor that changes any
// output byte fails here. Regenerate with `go test -run
// TestExperimentsSmoke -update` after an intended output change.
func TestExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke runs take ~1-2 minutes; skipped in -short")
	}
	var got []string
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			// Parallelism 4 exercises the worker-pool paths in every
			// driver; output equivalence with serial mode is asserted
			// separately in TestExperimentOutputEquivalence.
			dir := t.TempDir()
			p := Params{Seed: 1, DurationScale: 0.001, Parallelism: 4, OutDir: dir}
			var out bytes.Buffer
			if err := e.Run(p, &out); err != nil {
				t.Fatalf("%s failed: %v", e.ID, err)
			}
			got = append(got, e.ID+" stdout "+compare.DigestBytes(out.Bytes()))
			csvs, err := filepath.Glob(filepath.Join(dir, "*.csv"))
			if err != nil {
				t.Fatal(err)
			}
			for _, path := range csvs { // Glob sorts by name
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, e.ID+" "+filepath.Base(path)+" "+compare.DigestBytes(data))
			}
		})
	}
	if t.Failed() {
		return
	}
	golden := filepath.Join("testdata", "smoke.digests")
	text := strings.Join(got, "\n") + "\n"
	if *update {
		if err := os.WriteFile(golden, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(got) {
		t.Errorf("%d digests, want %d", len(got), len(wantLines))
	}
	for i := 0; i < len(got) && i < len(wantLines); i++ {
		if got[i] != wantLines[i] {
			t.Errorf("digest mismatch:\n got %s\nwant %s", got[i], wantLines[i])
		}
	}
}

func TestWriteCSV(t *testing.T) {
	dir := t.TempDir()
	p := Params{OutDir: dir}
	err := writeCSV(p, "test_series", []string{"a", "b"}, [][]float64{{1, 2}, {3.5, 4}})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "test_series.csv"))
	if err != nil {
		t.Fatal(err)
	}
	got := string(data)
	want := "a,b\n1,2\n3.5,4\n"
	if got != want {
		t.Errorf("csv = %q, want %q", got, want)
	}
	// No OutDir: no-op.
	if err := writeCSV(Params{}, "x", nil, nil); err != nil {
		t.Errorf("no-outdir writeCSV errored: %v", err)
	}
}

func TestSanitize(t *testing.T) {
	if got := sanitize("fig10_Sora (run)"); got != "fig10_Sora__run_" {
		t.Errorf("sanitize = %q", got)
	}
}

func TestDownsample(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	got := downsample(vals, 4)
	want := []float64{1.5, 3.5, 5.5, 7.5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("downsample = %v, want %v", got, want)
		}
	}
	// Empty input: all NaN.
	empty := downsample(nil, 3)
	for _, v := range empty {
		if v == v { // NaN check
			t.Errorf("empty downsample produced non-NaN %v", v)
		}
	}
}

func TestPlotASCIIDoesNotPanic(t *testing.T) {
	var sb strings.Builder
	plotASCII(&sb, "test", 40, 6,
		namedSeries{name: "a", values: []float64{1, 5, 3, 8, 2}, mark: '*'},
		namedSeries{name: "b", values: []float64{2, 2, 2, 2, 2}, mark: 'o'},
	)
	out := sb.String()
	if !strings.Contains(out, "test") || !strings.Contains(out, "*") {
		t.Errorf("chart output missing content:\n%s", out)
	}
	// Degenerate: no data.
	sb.Reset()
	plotASCII(&sb, "empty", 40, 6, namedSeries{name: "x", mark: '*'})
	if !strings.Contains(sb.String(), "no data") {
		t.Errorf("empty chart output: %q", sb.String())
	}
}

func TestKneeSizeSelectsPlateauStart(t *testing.T) {
	th := 100 * time.Millisecond
	points := []sweepPoint{
		{size: 3, goodput: map[time.Duration]float64{th: 0}},
		{size: 5, goodput: map[time.Duration]float64{th: 500}},
		{size: 10, goodput: map[time.Duration]float64{th: 960}},
		{size: 30, goodput: map[time.Duration]float64{th: 1000}},
		{size: 80, goodput: map[time.Duration]float64{th: 990}},
	}
	if got := kneeSize(points, th, 0.05); got != 10 {
		t.Errorf("kneeSize = %d, want 10", got)
	}
	if got := bestSize(points, th); got != 30 {
		t.Errorf("bestSize = %d, want 30", got)
	}
	if got := maxGoodput(points, th); got != 1000 {
		t.Errorf("maxGoodput = %g, want 1000", got)
	}
}
