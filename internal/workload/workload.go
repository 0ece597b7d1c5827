// Package workload provides the request-arrival machinery: a closed-loop
// user population that follows a time-varying target (ClosedLoop), and
// synthetic re-creations of the six real-world bursty workload traces the
// Sora paper evaluates with (from Gandhi et al., "AutoScale", TOCS 2012):
// Large Variation, Quick Varying, Slowly Varying, Big Spike, Dual Phase
// and Steep Tri Phase.
//
// The original traces are hour-scale datacenter demand curves; the paper
// replays them compressed to 12-minute runs. Here each trace is encoded
// as a normalized piecewise-linear intensity profile (time fraction ->
// intensity in [0,1]) that is stretched to the experiment duration and
// scaled to a peak user count (TraceUsers). Only the burst *shape*
// matters for the evaluation, which the profiles reproduce: amplitude,
// spike steepness and phase structure.
package workload

import (
	"fmt"
	"sort"
)

// TracePoint is one control point of a normalized trace profile.
type TracePoint struct {
	Frac      float64 // position in [0,1] of the experiment duration
	Intensity float64 // demand in [0,1] of the peak rate
}

// Trace is a named, normalized workload-intensity profile.
type Trace struct {
	Name   string
	Points []TracePoint
}

// Intensity returns the linearly interpolated intensity at time fraction
// f (clamped to [0,1]).
func (tr Trace) Intensity(f float64) float64 {
	if len(tr.Points) == 0 {
		return 0
	}
	if f <= tr.Points[0].Frac {
		return tr.Points[0].Intensity
	}
	last := tr.Points[len(tr.Points)-1]
	if f >= last.Frac {
		return last.Intensity
	}
	i := sort.Search(len(tr.Points), func(i int) bool { return tr.Points[i].Frac >= f })
	a, b := tr.Points[i-1], tr.Points[i]
	span := b.Frac - a.Frac
	if span == 0 {
		return b.Intensity
	}
	w := (f - a.Frac) / span
	return a.Intensity*(1-w) + b.Intensity*w
}

// Validate checks that the profile is well-formed: nonempty, fractions
// nondecreasing in [0,1], intensities in [0,1].
func (tr Trace) Validate() error {
	if len(tr.Points) == 0 {
		return fmt.Errorf("workload: trace %q has no points", tr.Name)
	}
	prev := -1.0
	for i, p := range tr.Points {
		if p.Frac < 0 || p.Frac > 1 {
			return fmt.Errorf("workload: trace %q point %d frac %g outside [0,1]", tr.Name, i, p.Frac)
		}
		if p.Frac < prev {
			return fmt.Errorf("workload: trace %q point %d frac %g decreases", tr.Name, i, p.Frac)
		}
		if p.Intensity < 0 || p.Intensity > 1 {
			return fmt.Errorf("workload: trace %q point %d intensity %g outside [0,1]", tr.Name, i, p.Intensity)
		}
		prev = p.Frac
	}
	return nil
}
