package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"sora/internal/experiment"
	"sora/internal/profile"
	"sora/internal/telemetry"
)

// unitResult is one regeneration of a workload's experiment unit, as the
// child process reports it to its parent.
type unitResult struct {
	// FirstCallNs is the host clock (Unix ns) at the first call into the
	// workload; the parent subtracts its own spawn time to get setup_s.
	FirstCallNs int64   `json:"first_call_unix_ns"`
	WallS       float64 `json:"wall_s"`
	Digest      string  `json:"digest"`
	Events      uint64  `json:"events"`
	Runs        uint64  `json:"runs"`
	// ArtifactBytes is the size of the observability artifacts written
	// (chaos_observed only).
	ArtifactBytes int64  `json:"artifact_bytes"`
	Err           string `json:"err,omitempty"`

	output string // the unit's stdout, kept in-process for the arm check
}

// unitSetup is one regeneration prepared up to its first call into the
// unit: the registry lookup, the parameters and, for an observed
// workload, the armed recorders.
type unitSetup struct {
	exp  experiment.Experiment
	p    experiment.Params
	tel  *telemetry.Recorder
	prof *profile.Aggregator
}

func setUpUnit(w workloadDef, seed uint64) (unitSetup, error) {
	exp, err := experiment.ByID(w.unit)
	if err != nil {
		return unitSetup{}, err
	}
	u := unitSetup{exp: exp, p: experiment.Params{Seed: seed, DurationScale: w.scale, Quiet: true, Parallelism: 1}}
	if w.observed {
		u.tel = telemetry.NewRecorder(exp.ID)
		u.tel.Publish(0, "run.manifest",
			telemetry.String("id", exp.ID),
			telemetry.String("tool", "sorabench"),
			telemetry.Int64("seed", int64(seed)),
			telemetry.Float("scale", w.scale),
		)
		u.prof = profile.NewAggregator(0)
		u.p.Telemetry, u.p.Profile, u.p.Timeline = u.tel, u.prof, time.Second
	}
	return u, nil
}

// setUpOnly sets a regeneration up and stops at its first call into the
// unit: one more setup_s sample for the price of a process start.
func setUpOnly(w workloadDef, seed uint64) unitResult {
	var res unitResult
	if _, err := setUpUnit(w, seed); err != nil {
		res.Err = err.Error()
	}
	res.FirstCallNs = time.Now().UnixNano() //soravet:allow wallclock setup_s is measured on the host clock by design
	return res
}

// runUnit regenerates w's experiment unit once at the given seed,
// serially and quiet, and digests its output (plus, for an observed
// workload, the artifacts it writes under dir). Spans go to sp when it
// is non-nil.
func runUnit(w workloadDef, seed uint64, dir string, sp *recorder) unitResult {
	var res unitResult
	u, err := setUpUnit(w, seed)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	experiment.ResetRunStats()
	var out bytes.Buffer
	res.FirstCallNs = time.Now().UnixNano() //soravet:allow wallclock setup_s is measured on the host clock by design
	start := time.Now()                     //soravet:allow wallclock wall_s is measured on the host clock by design
	id := sp.start("unit." + w.name)
	err = u.exp.Run(u.p, &out)
	h := sha256.New()
	h.Write(out.Bytes())
	if err == nil && w.observed {
		artDir := filepath.Join(dir, fmt.Sprintf("artifacts-%d", os.Getpid()))
		res.ArtifactBytes, err = writeArtifacts(artDir, u.exp.ID, u.tel, u.prof, h, sp)
		if rmErr := os.RemoveAll(artDir); err == nil {
			err = rmErr
		}
	}
	sp.end(id)
	res.WallS = time.Since(start).Seconds() //soravet:allow wallclock wall_s is measured on the host clock by design
	res.Runs, res.Events = experiment.RunStats()
	res.Digest = hex.EncodeToString(h.Sum(nil))
	res.output = out.String()
	if err != nil {
		res.Err = err.Error()
	}
	return res
}

// writeArtifacts writes what `sorabench -telemetry-dir -timeline` writes
// for one experiment (event log, Prometheus snapshot, Chrome trace,
// timeline, profile table and folded stacks) into dir, feeds every file
// into h in name order, and returns their total size.
func writeArtifacts(dir, id string, tel *telemetry.Recorder, prof *profile.Aggregator, h io.Writer, sp *recorder) (int64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	prof.FlushTelemetry(tel)
	snap := prof.Snapshot()
	steps := []struct {
		span string
		fn   func() error
	}{
		{"telemetry.write_files", func() error { return tel.WriteFiles(dir, id) }},
		{"telemetry.write_timeline", func() error { return createWith(filepath.Join(dir, id+".timeline.jsonl"), tel.WriteTimeline) }},
		{"profile.write_table", func() error { return createWith(filepath.Join(dir, id+".profile.txt"), snap.WriteTable) }},
		{"profile.write_folded", func() error {
			return createWith(filepath.Join(dir, id+".folded"), func(w io.Writer) error { return profile.WriteFolded(w, snap) })
		}},
	}
	for _, s := range steps {
		sid := sp.start(s.span)
		err := s.fn()
		sp.end(sid)
		if err != nil {
			return 0, fmt.Errorf("artifacts: %s: %w", s.span, err)
		}
	}
	entries, err := os.ReadDir(dir) // sorted by name
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return 0, err
		}
		fmt.Fprintf(h, "\x00%s\x00%d\x00", e.Name(), len(data))
		h.Write(data)
		total += int64(len(data))
	}
	return total, nil
}

// createWith creates path and fills it with fn.
func createWith(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
