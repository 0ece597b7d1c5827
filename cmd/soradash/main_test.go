package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden dashboard")

// TestGoldenDashboard pins the renderer byte for byte: the committed
// fixture must always produce the committed HTML. Regenerate with
// `go test ./cmd/soradash -run Golden -update` after an intentional
// renderer change and review the diff in a browser.
func TestGoldenDashboard(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "sample.timeline.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	fd, err := parseTimeline("sample", string(raw))
	if err != nil {
		t.Fatal(err)
	}
	got := render("Sora flight recorder", []*fileData{fd})
	goldenPath := filepath.Join("testdata", "golden.html")
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		line := firstDiffLine(got, string(want))
		t.Fatalf("dashboard HTML diverged from golden (run with -update after reviewing)\nfirst differing line: %s", line)
	}
}

func firstDiffLine(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return al[i]
		}
	}
	return "<length differs>"
}

// TestParseTimelineModel checks the structural digest of the fixture:
// unit order is first-seen, fault windows pair up, markers only carry
// annotation kinds.
func TestParseTimelineModel(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "sample.timeline.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	fd, err := parseTimeline("sample", string(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(fd.units) != 2 {
		t.Fatalf("units = %d, want 2", len(fd.units))
	}
	if fd.units[0].Path != "demo/runs/static" || fd.units[1].Path != "demo/runs/sora" {
		t.Fatalf("unit order = %s, %s", fd.units[0].Path, fd.units[1].Path)
	}
	static, sora := fd.units[0], fd.units[1]
	if len(static.Cluster) != 3 || len(sora.Cluster) != 3 {
		t.Fatalf("cluster rows = %d/%d, want 3/3", len(static.Cluster), len(sora.Cluster))
	}
	if len(static.faults) != 1 || static.faults[0].open {
		t.Fatalf("static faults = %+v, want one closed window", static.faults)
	}
	if f := static.faults[0]; f.t0 != 1.5 || f.t1 != 2.5 || f.kind != "crash" || f.target != "backend" {
		t.Fatalf("fault window = %+v", f)
	}
	if len(static.Annotations) != 0 {
		t.Fatalf("static markers = %d, want 0", len(static.Annotations))
	}
	if len(sora.Annotations) != 2 || sora.Annotations[0].Kind != "controller.decision" {
		t.Fatalf("sora markers = %+v", sora.Annotations)
	}
	if label := markerLabel(sora.Annotations[0]); !strings.Contains(label, "resource=frontend threads") {
		t.Fatalf("marker label = %q", label)
	}
	if got := static.Services; len(got) != 2 || got[0] != "frontend" || got[1] != "backend" {
		t.Fatalf("service order = %v", got)
	}
}

// TestRenderEmpty: a timeline with no rows still renders a document.
func TestRenderEmpty(t *testing.T) {
	fd, err := parseTimeline("empty", "")
	if err != nil {
		t.Fatal(err)
	}
	out := render("t", []*fileData{fd})
	if !strings.Contains(out, "<!DOCTYPE html>") {
		t.Fatal("no document produced")
	}
}
