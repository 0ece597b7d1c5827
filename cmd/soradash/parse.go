package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"sora/internal/compare"
)

// The dashboard model. One fileData per *.timeline.jsonl input; one
// unitData per unit that compare.ParseTimeline reads from it, in
// first-seen order (which the recorder's deterministic walk makes
// stable), plus the fault windows the panels shade. Every annotation
// becomes a marker.

type fileData struct {
	name  string
	units []*unitData
}

type unitData struct {
	*compare.Unit
	maxT   float64 // seconds, the unit's last timestamp
	faults []faultWin
}

// faultWin is one shaded fault window; open windows close at the unit's
// last timestamp.
type faultWin struct {
	t0, t1 float64
	kind   string
	target string
	open   bool
}

// seconds converts a timeline timestamp to seconds.
func seconds(tUs int64) float64 { return float64(tUs) / 1e6 }

// attr returns the named attribute value or "".
func attr(kvs []compare.KV, key string) string {
	for _, kv := range kvs {
		if kv.Key == key {
			return kv.Value
		}
	}
	return ""
}

// parseTimeline builds the per-unit model from one timeline file.
func parseTimeline(name, raw string) (*fileData, error) {
	run, err := compare.ParseTimeline(name, raw)
	if err != nil {
		return nil, err
	}
	fd := &fileData{name: name}
	for _, cu := range run.Units {
		u := &unitData{Unit: cu, maxT: seconds(cu.LastTUs)}
		for _, f := range cu.Faults {
			// A fault line's second "kind" key is the fault kind.
			kind, target := attr(f.Attrs, "kind"), attr(f.Attrs, "target")
			if !f.Recover {
				u.faults = append(u.faults, faultWin{t0: seconds(f.TUs), kind: kind, target: target, open: true})
				continue
			}
			// Close the oldest open window of the same kind+target.
			for j := range u.faults {
				fw := &u.faults[j]
				if fw.open && fw.kind == kind && fw.target == target {
					fw.t1, fw.open = seconds(f.TUs), false
					break
				}
			}
		}
		for j := range u.faults {
			if u.faults[j].open {
				u.faults[j].t1 = u.maxT
			}
		}
		fd.units = append(fd.units, u)
	}
	return fd, nil
}

// markerLabel renders an annotation's attributes as "k=v" pairs in
// sorted key order for the hover tooltip. JSON numbers print as Go
// float64 values (%v), so 1000000 reads 1e+06.
func markerLabel(a compare.Annotation) string {
	order := make([]int, len(a.Attrs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return a.Attrs[order[i]].Key < a.Attrs[order[j]].Key })
	var b strings.Builder
	b.WriteString(a.Kind)
	for _, i := range order {
		kv := a.Attrs[i]
		if a.Numeric[i] {
			v, _ := strconv.ParseFloat(kv.Value, 64)
			fmt.Fprintf(&b, " %s=%v", kv.Key, v)
			continue
		}
		fmt.Fprintf(&b, " %s=%s", kv.Key, kv.Value)
	}
	return b.String()
}
