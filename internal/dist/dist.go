// Package dist provides the sampling distributions used to model service
// demands, think times and payload sizes in the simulated microservice
// cluster. Every distribution draws from an externally supplied
// *rand.Rand so that the whole simulation remains deterministic for a
// given kernel seed.
//
// All samplers return time.Duration values and guarantee a non-negative
// result; a duration of zero is valid (e.g. a cache hit modelled as free).
package dist

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"
)

// Distribution samples virtual-time durations.
type Distribution interface {
	// Sample draws one value using the provided random source.
	Sample(rng *rand.Rand) time.Duration
	// Mean returns the distribution's expected value.
	Mean() time.Duration
	// String returns a compact human-readable description.
	String() string
}

// Deterministic always returns a fixed value.
type Deterministic struct {
	Value time.Duration
}

// NewDeterministic returns a point-mass distribution at v (clamped to >= 0).
func NewDeterministic(v time.Duration) Deterministic {
	if v < 0 {
		v = 0
	}
	return Deterministic{Value: v}
}

// Sample implements Distribution.
func (d Deterministic) Sample(*rand.Rand) time.Duration { return d.Value }

// Mean implements Distribution.
func (d Deterministic) Mean() time.Duration { return d.Value }

func (d Deterministic) String() string { return fmt.Sprintf("det(%v)", d.Value) }

// Exponential is the memoryless distribution with the given mean.
type Exponential struct {
	MeanValue time.Duration
}

// NewExponential returns an exponential distribution with mean m.
func NewExponential(m time.Duration) Exponential {
	if m < 0 {
		m = 0
	}
	return Exponential{MeanValue: m}
}

// Sample implements Distribution.
func (d Exponential) Sample(rng *rand.Rand) time.Duration {
	if d.MeanValue == 0 {
		return 0
	}
	return time.Duration(rng.ExpFloat64() * float64(d.MeanValue))
}

// Mean implements Distribution.
func (d Exponential) Mean() time.Duration { return d.MeanValue }

func (d Exponential) String() string { return fmt.Sprintf("exp(%v)", d.MeanValue) }

// LogNormal models service demands with a right-skewed body, the typical
// shape of CPU demand in request processing. It is parameterised by its
// (linear-space) mean and the sigma of the underlying normal.
type LogNormal struct {
	MeanValue time.Duration
	Sigma     float64
	mu        float64
}

// NewLogNormal returns a log-normal distribution with the given linear-space
// mean and log-space standard deviation sigma. Sigma around 0.3-0.6 gives a
// moderately skewed demand; sigma 1.0+ is heavy-tailed.
func NewLogNormal(mean time.Duration, sigma float64) LogNormal {
	if mean < 0 {
		mean = 0
	}
	if sigma < 0 {
		sigma = 0
	}
	d := LogNormal{MeanValue: mean, Sigma: sigma}
	if mean > 0 {
		// E[X] = exp(mu + sigma^2/2)  =>  mu = ln(mean) - sigma^2/2.
		d.mu = math.Log(float64(mean)) - sigma*sigma/2
	}
	return d
}

// Sample implements Distribution.
func (d LogNormal) Sample(rng *rand.Rand) time.Duration {
	if d.MeanValue == 0 {
		return 0
	}
	if d.Sigma == 0 {
		return d.MeanValue
	}
	x := math.Exp(d.mu + d.Sigma*rng.NormFloat64())
	if x < 0 || math.IsNaN(x) {
		return 0
	}
	if x > math.MaxInt64 {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(x)
}

// Mean implements Distribution.
func (d LogNormal) Mean() time.Duration { return d.MeanValue }

func (d LogNormal) String() string {
	return fmt.Sprintf("lognormal(mean=%v,sigma=%.2f)", d.MeanValue, d.Sigma)
}

// Pareto is a bounded Pareto distribution for heavy-tailed demands (e.g.
// fan-out queries that occasionally touch a large dataset). The tail is
// truncated at Max to keep simulated experiments finite.
type Pareto struct {
	Min   time.Duration
	Max   time.Duration
	Alpha float64
}

// NewPareto returns a bounded Pareto on [min, max] with shape alpha.
// Alpha <= 1 has an unbounded theoretical mean, hence the bound.
func NewPareto(min, max time.Duration, alpha float64) Pareto {
	if min < 0 {
		min = 0
	}
	if max < min {
		max = min
	}
	if alpha <= 0 {
		alpha = 1.5
	}
	return Pareto{Min: min, Max: max, Alpha: alpha}
}

// Sample implements Distribution.
func (d Pareto) Sample(rng *rand.Rand) time.Duration {
	if d.Min == d.Max {
		return d.Min
	}
	l := float64(d.Min)
	h := float64(d.Max)
	u := rng.Float64()
	// Inverse CDF of bounded Pareto.
	la := math.Pow(l, d.Alpha)
	ha := math.Pow(h, d.Alpha)
	x := math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/d.Alpha)
	if x < l {
		x = l
	}
	if x > h {
		x = h
	}
	return time.Duration(x)
}

// Mean implements Distribution.
func (d Pareto) Mean() time.Duration {
	if d.Min == d.Max {
		return d.Min
	}
	l := float64(d.Min)
	h := float64(d.Max)
	a := d.Alpha
	if a == 1 {
		la := math.Pow(l, a)
		ha := math.Pow(h, a)
		return time.Duration(ha * la / (ha - la) * math.Log(h/l))
	}
	la := math.Pow(l, a)
	ha := math.Pow(h, a)
	m := la / (1 - math.Pow(l/h, a)) * (a / (a - 1)) * (1/math.Pow(l, a-1) - 1/math.Pow(h, a-1))
	_ = ha
	return time.Duration(m)
}

func (d Pareto) String() string {
	return fmt.Sprintf("pareto(%v,%v,alpha=%.2f)", d.Min, d.Max, d.Alpha)
}

// Erlang is the sum of K independent exponentials, giving a demand with a
// coefficient of variation below 1 (more regular than exponential).
type Erlang struct {
	K         int
	MeanValue time.Duration
}

// NewErlang returns an Erlang-k distribution with the given overall mean.
func NewErlang(k int, mean time.Duration) Erlang {
	if k < 1 {
		k = 1
	}
	if mean < 0 {
		mean = 0
	}
	return Erlang{K: k, MeanValue: mean}
}

// Sample implements Distribution.
func (d Erlang) Sample(rng *rand.Rand) time.Duration {
	if d.MeanValue == 0 {
		return 0
	}
	phaseMean := float64(d.MeanValue) / float64(d.K)
	var total float64
	for i := 0; i < d.K; i++ {
		total += rng.ExpFloat64() * phaseMean
	}
	return time.Duration(total)
}

// Mean implements Distribution.
func (d Erlang) Mean() time.Duration { return d.MeanValue }

func (d Erlang) String() string { return fmt.Sprintf("erlang(k=%d,mean=%v)", d.K, d.MeanValue) }

// Scaled wraps a distribution and multiplies every sample by Factor. It is
// the mechanism behind "system state drifting": a request type whose
// computation grows (e.g. 2 posts -> 10 posts) is the base demand scaled up.
type Scaled struct {
	Base   Distribution
	Factor float64
}

// NewScaled returns d scaled by factor (clamped to >= 0).
func NewScaled(d Distribution, factor float64) Scaled {
	if factor < 0 {
		factor = 0
	}
	return Scaled{Base: d, Factor: factor}
}

// Sample implements Distribution.
func (d Scaled) Sample(rng *rand.Rand) time.Duration {
	return time.Duration(float64(d.Base.Sample(rng)) * d.Factor)
}

// Mean implements Distribution.
func (d Scaled) Mean() time.Duration {
	return time.Duration(float64(d.Base.Mean()) * d.Factor)
}

func (d Scaled) String() string { return fmt.Sprintf("scaled(%v,x%.2f)", d.Base, d.Factor) }

// Verify interface compliance at compile time.
var (
	_ Distribution = Deterministic{}
	_ Distribution = Exponential{}
	_ Distribution = LogNormal{}
	_ Distribution = Pareto{}
	_ Distribution = Erlang{}
	_ Distribution = Scaled{}
)
