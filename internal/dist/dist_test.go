package dist

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
	"time"
)

func newRNG() *rand.Rand { return rand.New(rand.NewPCG(11, 17)) }

// sampleMean draws n samples and returns the empirical mean.
func sampleMean(d Distribution, n int) time.Duration {
	rng := newRNG()
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(d.Sample(rng))
	}
	return time.Duration(sum / float64(n))
}

// within asserts |got-want| <= tol*want.
func within(t *testing.T, name string, got, want time.Duration, tol float64) {
	t.Helper()
	if want == 0 {
		if got != 0 {
			t.Errorf("%s: got %v, want 0", name, got)
		}
		return
	}
	diff := math.Abs(float64(got) - float64(want))
	if diff > tol*float64(want) {
		t.Errorf("%s: empirical mean %v deviates from %v by more than %.0f%%", name, got, want, tol*100)
	}
}

func TestMeansConvergeToDeclaredMean(t *testing.T) {
	tests := []struct {
		name string
		d    Distribution
		tol  float64
	}{
		{"deterministic", NewDeterministic(10 * time.Millisecond), 0.0},
		{"exponential", NewExponential(5 * time.Millisecond), 0.05},
		{"lognormal", NewLogNormal(20*time.Millisecond, 0.5), 0.05},
		{"erlang", NewErlang(4, 12*time.Millisecond), 0.05},
		{"scaled", NewScaled(NewExponential(4*time.Millisecond), 2.5), 0.05},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			within(t, tt.name, sampleMean(tt.d, 200_000), tt.d.Mean(), tt.tol+1e-12)
		})
	}
}

func TestParetoBoundsAndMean(t *testing.T) {
	d := NewPareto(time.Millisecond, 100*time.Millisecond, 1.5)
	rng := newRNG()
	for i := 0; i < 100_000; i++ {
		v := d.Sample(rng)
		if v < d.Min || v > d.Max {
			t.Fatalf("pareto sample %v outside [%v,%v]", v, d.Min, d.Max)
		}
	}
	within(t, "pareto", sampleMean(d, 400_000), d.Mean(), 0.05)
}

func TestParetoDegenerate(t *testing.T) {
	d := NewPareto(5*time.Millisecond, 5*time.Millisecond, 2)
	if got := d.Sample(newRNG()); got != 5*time.Millisecond {
		t.Errorf("degenerate pareto sample = %v, want 5ms", got)
	}
	if got := d.Mean(); got != 5*time.Millisecond {
		t.Errorf("degenerate pareto mean = %v, want 5ms", got)
	}
}

func TestNonNegativeSamples(t *testing.T) {
	dists := []Distribution{
		NewDeterministic(-time.Second),
		NewExponential(time.Millisecond),
		NewLogNormal(time.Millisecond, 2.0),
		NewPareto(0, time.Second, 0.8),
		NewErlang(3, time.Millisecond),
		NewScaled(NewExponential(time.Millisecond), 0.001),
	}
	rng := newRNG()
	for _, d := range dists {
		for i := 0; i < 10_000; i++ {
			if v := d.Sample(rng); v < 0 {
				t.Fatalf("%v produced negative sample %v", d, v)
			}
		}
	}
}

func TestZeroMeanDistributions(t *testing.T) {
	rng := newRNG()
	for _, d := range []Distribution{
		NewExponential(0),
		NewLogNormal(0, 0.5),
		NewErlang(2, 0),
	} {
		for i := 0; i < 100; i++ {
			if v := d.Sample(rng); v != 0 {
				t.Errorf("%v with zero mean produced %v", d, v)
			}
		}
	}
}

func TestErlangLowerVarianceThanExponential(t *testing.T) {
	mean := 10 * time.Millisecond
	varOf := func(d Distribution, n int) float64 {
		rng := newRNG()
		var sum, sumsq float64
		for i := 0; i < n; i++ {
			v := float64(d.Sample(rng))
			sum += v
			sumsq += v * v
		}
		m := sum / float64(n)
		return sumsq/float64(n) - m*m
	}
	ve := varOf(NewExponential(mean), 100_000)
	vk := varOf(NewErlang(4, mean), 100_000)
	if vk >= ve {
		t.Errorf("Erlang-4 variance %g not below exponential variance %g", vk, ve)
	}
}

func TestScaledFactorClamp(t *testing.T) {
	d := NewScaled(NewDeterministic(time.Second), -2)
	if v := d.Sample(newRNG()); v != 0 {
		t.Errorf("negative factor sample = %v, want 0", v)
	}
}

func TestLogNormalSigmaZeroIsDeterministic(t *testing.T) {
	d := NewLogNormal(7*time.Millisecond, 0)
	rng := newRNG()
	for i := 0; i < 100; i++ {
		if v := d.Sample(rng); v != 7*time.Millisecond {
			t.Errorf("sigma=0 sample = %v, want 7ms", v)
		}
	}
}

func TestStringsNonEmpty(t *testing.T) {
	for _, d := range []Distribution{
		NewDeterministic(time.Second),
		NewExponential(time.Second),
		NewLogNormal(time.Second, 1),
		NewPareto(time.Millisecond, time.Second, 2),
		NewErlang(2, time.Second),
		NewScaled(NewDeterministic(time.Second), 2),
	} {
		if d.String() == "" {
			t.Errorf("%T has empty String()", d)
		}
	}
}

// Property: scaling by f multiplies the mean by f (within sampling noise).
func TestQuickScaledMean(t *testing.T) {
	f := func(rawMean uint16, rawFactor uint8) bool {
		mean := time.Duration(rawMean) * time.Microsecond
		factor := float64(rawFactor%50) / 10.0
		d := NewScaled(NewDeterministic(mean), factor)
		want := time.Duration(float64(mean) * factor)
		got := d.Sample(newRNG())
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkLogNormalSample(b *testing.B) {
	d := NewLogNormal(10*time.Millisecond, 0.5)
	rng := newRNG()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.Sample(rng)
	}
}
