package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// seedsPerRun is how many unit seeds one run derives from --seed. A run
// cycles its regenerations through them, so its medians cover several
// inputs rather than one seed's fault outcomes and GC phase (peak RSS
// moves by up to a third between single seeds).
const seedsPerRun = 3

// unitSeeds returns the unit seeds of a run: seedsPerRun*seed + i.
// Distinct --seed values give disjoint sets.
func unitSeeds(seed uint64) []uint64 {
	out := make([]uint64, seedsPerRun)
	for i := range out {
		out[i] = seedsPerRun*seed + uint64(i)
	}
	return out
}

// pin is the expected outcome of a workload at one unit seed and the
// workload's fixed scale.
type pin struct {
	Seed   uint64 `json:"seed"`
	Digest string `json:"digest"`
	Events uint64 `json:"events"`
}

//go:embed expected.json
var expectedJSON []byte

// loadPins parses expected.json: workload name -> the pins of the unit
// seeds of --seed 1.
func loadPins() (map[string][]pin, error) {
	pins := map[string][]pin{}
	if err := json.Unmarshal(expectedJSON, &pins); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return pins, nil
}

// checker counts attempted and failed unit runs of one workload. A run
// fails if it returned an error, or if its digest or simulated event
// count differs from its unit seed's pin or, for an unpinned seed, from
// the first run at that seed. A failure is counted, never fatal.
type checker struct {
	want      map[uint64]pin
	attempted int
	failed    int
	problems  []string
}

func newChecker(pins []pin) *checker {
	c := &checker{want: map[uint64]pin{}}
	for _, p := range pins {
		c.want[p.Seed] = p
	}
	return c
}

// check records one unit run at seed and reports whether it passed.
func (c *checker) check(seed uint64, r unitResult) bool {
	want, known := c.want[seed]
	var problem string
	switch {
	case r.Err != "":
		problem = fmt.Sprintf("seed %d: run error: %s", seed, r.Err)
	case !known:
		c.want[seed] = pin{Seed: seed, Digest: r.Digest, Events: r.Events}
	case r.Digest != want.Digest:
		problem = fmt.Sprintf("seed %d: output digest %.12s, want %.12s", seed, r.Digest, want.Digest)
	case r.Events != want.Events:
		problem = fmt.Sprintf("seed %d: sim.events %d, want %d", seed, r.Events, want.Events)
	}
	return c.record(problem)
}

// record counts one attempted run, failed when problem is non-empty.
func (c *checker) record(problem string) bool {
	c.attempted++
	if problem == "" {
		return true
	}
	c.failed++
	c.problems = append(c.problems, problem)
	return false
}
