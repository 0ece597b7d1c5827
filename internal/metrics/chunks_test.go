package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"sora/internal/sim"
	"sora/internal/stats"
)

// refSeries and refLog are the slice-backed Series and CompletionLog the
// chunked store replaced, kept verbatim as the oracle for the property
// test below, except that lowerBound pairs go through refSpan so an
// inverted window is empty instead of a slice-bounds panic.
type refSeries struct{ pts []Point }

func (s *refSeries) Add(t sim.Time, v float64) { s.pts = append(s.pts, Point{T: t, V: v}) }

func (s *refSeries) Len() int { return len(s.pts) }

func (s *refSeries) Window(since, until sim.Time) []Point {
	lo, hi := s.span(since, until)
	if lo >= hi {
		return nil
	}
	out := make([]Point, hi-lo)
	copy(out, s.pts[lo:hi])
	return out
}

func (s *refSeries) Last() (Point, bool) {
	if len(s.pts) == 0 {
		return Point{}, false
	}
	return s.pts[len(s.pts)-1], true
}

func (s *refSeries) Prune(before sim.Time) {
	i := s.lowerBound(before)
	remaining := len(s.pts) - i
	copy(s.pts, s.pts[i:])
	s.pts = s.pts[:remaining]
}

func (s *refSeries) BucketMeans(since, until sim.Time, bucket time.Duration) []float64 {
	n := bucketCount(since, until, bucket)
	if n == 0 {
		return nil
	}
	sums := make([]float64, n)
	counts := make([]int, n)
	lo, hi := s.span(since, until)
	for _, p := range s.pts[lo:hi] {
		idx := int((p.T - since) / bucket)
		if idx < 0 || idx >= n {
			continue
		}
		sums[idx] += p.V
		counts[idx]++
	}
	out := make([]float64, n)
	for i := range out {
		if counts[i] == 0 {
			out[i] = math.NaN()
		} else {
			out[i] = sums[i] / float64(counts[i])
		}
	}
	return out
}

func (s *refSeries) span(since, until sim.Time) (int, int) {
	return refSpan(s.lowerBound(since), s.lowerBound(until))
}

func (s *refSeries) lowerBound(t sim.Time) int {
	return sort.Search(len(s.pts), func(i int) bool { return s.pts[i].T >= t })
}

type refLog struct{ completions []Completion }

func (l *refLog) AddFlagged(at sim.Time, rt time.Duration, degraded bool) {
	l.completions = append(l.completions, Completion{At: at, RT: rt, Degraded: degraded})
}

func (l *refLog) Len() int { return len(l.completions) }

func (l *refLog) Prune(before sim.Time) {
	i := l.lowerBound(before)
	remaining := len(l.completions) - i
	copy(l.completions, l.completions[i:])
	l.completions = l.completions[:remaining]
}

func (l *refLog) Window(since, until sim.Time) []Completion {
	lo, hi := l.span(since, until)
	if lo >= hi {
		return nil
	}
	out := make([]Completion, hi-lo)
	copy(out, l.completions[lo:hi])
	return out
}

func (l *refLog) Counts(since, until sim.Time, threshold time.Duration) (good, bad int) {
	lo, hi := l.span(since, until)
	for _, c := range l.completions[lo:hi] {
		if !c.Degraded && c.RT <= threshold {
			good++
		} else {
			bad++
		}
	}
	return good, bad
}

func (l *refLog) CountsByOutcome(since, until sim.Time, threshold time.Duration) (good, degraded, violated int) {
	lo, hi := l.span(since, until)
	for _, c := range l.completions[lo:hi] {
		switch {
		case c.Degraded:
			degraded++
		case c.RT <= threshold:
			good++
		default:
			violated++
		}
	}
	return good, degraded, violated
}

func (l *refLog) GoodputRate(since, until sim.Time, threshold time.Duration) float64 {
	if until <= since {
		return 0
	}
	good, _ := l.Counts(since, until, threshold)
	return float64(good) / (until - since).Seconds()
}

func (l *refLog) ThroughputRate(since, until sim.Time) float64 {
	if until <= since {
		return 0
	}
	good, bad := l.Counts(since, until, time.Duration(math.MaxInt64))
	return float64(good+bad) / (until - since).Seconds()
}

func (l *refLog) BucketRates(since, until sim.Time, bucket time.Duration, threshold time.Duration) (goodput, throughput []float64) {
	n := bucketCount(since, until, bucket)
	if n == 0 {
		return nil, nil
	}
	goodput = make([]float64, n)
	throughput = make([]float64, n)
	perBucket := bucket.Seconds()
	lo, hi := l.span(since, until)
	for _, c := range l.completions[lo:hi] {
		idx := int((c.At - since) / bucket)
		if idx < 0 || idx >= n {
			continue
		}
		throughput[idx]++
		if !c.Degraded && c.RT <= threshold {
			goodput[idx]++
		}
	}
	for i := range goodput {
		goodput[i] /= perBucket
		throughput[i] /= perBucket
	}
	return goodput, throughput
}

func (l *refLog) ResponseTimes(since, until sim.Time) []float64 {
	lo, hi := l.span(since, until)
	win := l.completions[lo:hi]
	out := make([]float64, len(win))
	for i, c := range win {
		out[i] = float64(c.RT) / float64(time.Millisecond)
	}
	return out
}

func (l *refLog) Percentile(p float64, since, until sim.Time) (time.Duration, error) {
	ms, err := stats.Percentile(l.ResponseTimes(since, until), p)
	if err != nil {
		return 0, fmt.Errorf("metrics: percentile: %w", err)
	}
	return time.Duration(ms * float64(time.Millisecond)), nil
}

func (l *refLog) span(since, until sim.Time) (int, int) {
	return refSpan(l.lowerBound(since), l.lowerBound(until))
}

func (l *refLog) lowerBound(t sim.Time) int {
	return sort.Search(len(l.completions), func(i int) bool { return l.completions[i].At >= t })
}

func refSpan(lo, hi int) (int, int) {
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// sameFloats compares float slices bit for bit, so NaN buckets match
// and nil differs from empty.
func sameFloats(a, b []float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestChunkedStoreMatchesReference drives the chunked Series and
// CompletionLog and their slice-backed references through the same
// random appends, prunes and queries and requires every public method
// to agree exactly. Timestamps advance in runs of equal values, some
// longer than a chunk, so equal keys straddle chunk boundaries; prunes
// land before the head, mid-chunk, on chunk edges and past the end; and
// query windows include empty, inverted and out-of-range ones.
func TestChunkedStoreMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var (
			s   Series
			rs  refSeries
			l   CompletionLog
			rl  refLog
			now sim.Time
		)
		randTime := func() sim.Time {
			// Anywhere from before the oldest sample to past the newest.
			return sim.Time(rng.Int63n(int64(now)+int64(40*time.Millisecond))) - sim.Time(10*time.Millisecond)
		}
		keyAt := func(i int) sim.Time { // a stored key, or now when empty
			if i < rl.Len() {
				return rl.completions[i].At
			}
			return now
		}
		for step := 0; step < 60; step++ {
			switch op := rng.Intn(10); {
			case op < 5: // a burst of appends
				n := rng.Intn(3 * chunkLen)
				for i := 0; i < n; {
					run := 1 + rng.Intn(8)
					if rng.Intn(20) == 0 {
						run = chunkLen + rng.Intn(chunkLen) // an equal-key run longer than a chunk
					}
					for j := 0; j < run && i < n; j++ {
						v := rng.NormFloat64()
						rt := time.Duration(rng.Int63n(int64(400 * time.Millisecond)))
						degraded := rng.Intn(7) == 0
						s.Add(now, v)
						rs.Add(now, v)
						l.AddFlagged(now, rt, degraded)
						rl.AddFlagged(now, rt, degraded)
						i++
					}
					now += sim.Time(rng.Int63n(int64(3 * time.Millisecond)))
				}
			case op < 8: // a prune
				var cutoff sim.Time
				switch rng.Intn(4) {
				case 0:
					cutoff = randTime()
				case 1: // the key sitting on a chunk edge of the current layout
					cutoff = keyAt((chunkLen - l.completions.head%chunkLen) + chunkLen*rng.Intn(3))
				case 2:
					cutoff = now + sim.Time(time.Second) // past the end
				default:
					cutoff = keyAt(rng.Intn(rl.Len() + 1))
				}
				s.Prune(cutoff)
				rs.Prune(cutoff)
				l.Prune(cutoff)
				rl.Prune(cutoff)
			default: // drain the log entirely, then keep going
				s.Prune(now + 1)
				rs.Prune(now + 1)
				l.Prune(now + 1)
				rl.Prune(now + 1)
			}
			for q := 0; q < 4; q++ {
				since, until := randTime(), randTime()
				if q == 0 {
					since, until = until, since
				}
				compareStores(t, seed, step, &s, &rs, &l, &rl, since, until, rng)
			}
		}
	}
}

func compareStores(t *testing.T, seed int64, step int, s *Series, rs *refSeries, l *CompletionLog, rl *refLog, since, until sim.Time, rng *rand.Rand) {
	t.Helper()
	fail := func(what string, got, want any) {
		t.Helper()
		t.Fatalf("seed %d step %d [%v,%v): %s = %v, reference %v", seed, step, since, until, what, got, want)
	}
	// A few to a few hundred buckets per window, and sometimes a
	// non-positive width.
	bucket := (until-since)/time.Duration(1+rng.Intn(300)) + time.Duration(rng.Intn(3))
	if rng.Intn(20) == 0 {
		bucket = -bucket
	}
	threshold := time.Duration(rng.Int63n(int64(400 * time.Millisecond)))
	p := 100 * rng.Float64()

	if got, want := s.Len(), rs.Len(); got != want {
		fail("Series.Len", got, want)
	}
	gp, gok := s.Last()
	wp, wok := rs.Last()
	if gp != wp || gok != wok {
		fail("Series.Last", gp, wp)
	}
	if got, want := s.Window(since, until), rs.Window(since, until); !reflect.DeepEqual(got, want) {
		fail("Series.Window", got, want)
	}
	if got, want := s.BucketMeans(since, until, bucket), rs.BucketMeans(since, until, bucket); !sameFloats(got, want) {
		fail("Series.BucketMeans", got, want)
	}

	if got, want := l.Len(), rl.Len(); got != want {
		fail("CompletionLog.Len", got, want)
	}
	if got, want := l.Window(since, until), rl.Window(since, until); !reflect.DeepEqual(got, want) {
		fail("CompletionLog.Window", got, want)
	}
	g1, b1 := l.Counts(since, until, threshold)
	g2, b2 := rl.Counts(since, until, threshold)
	if g1 != g2 || b1 != b2 {
		fail("Counts", [2]int{g1, b1}, [2]int{g2, b2})
	}
	g1, d1, v1 := l.CountsByOutcome(since, until, threshold)
	g2, d2, v2 := rl.CountsByOutcome(since, until, threshold)
	if g1 != g2 || d1 != d2 || v1 != v2 {
		fail("CountsByOutcome", [3]int{g1, d1, v1}, [3]int{g2, d2, v2})
	}
	if got, want := l.GoodputRate(since, until, threshold), rl.GoodputRate(since, until, threshold); math.Float64bits(got) != math.Float64bits(want) {
		fail("GoodputRate", got, want)
	}
	if got, want := l.ThroughputRate(since, until), rl.ThroughputRate(since, until); math.Float64bits(got) != math.Float64bits(want) {
		fail("ThroughputRate", got, want)
	}
	gg, gt := l.BucketRates(since, until, bucket, threshold)
	wg, wt := rl.BucketRates(since, until, bucket, threshold)
	if !sameFloats(gg, wg) || !sameFloats(gt, wt) {
		fail("BucketRates", [2][]float64{gg, gt}, [2][]float64{wg, wt})
	}
	if got, want := l.ResponseTimes(since, until), rl.ResponseTimes(since, until); !sameFloats(got, want) {
		fail("ResponseTimes", got, want)
	}
	gd, gerr := l.Percentile(p, since, until)
	wd, werr := rl.Percentile(p, since, until)
	if gd != wd || fmt.Sprint(gerr) != fmt.Sprint(werr) {
		fail("Percentile", fmt.Sprint(gd, gerr), fmt.Sprint(wd, werr))
	}
}

// TestInvertedWindowsAreEmpty is the regression test for windows with
// since > until: the index-slicing queries used to panic with "slice
// bounds out of range" while Window, GoodputRate and BucketRates
// returned empty. Every query now treats the window as empty.
func TestInvertedWindowsAreEmpty(t *testing.T) {
	var l CompletionLog
	var s Series
	for i := 0; i < 10; i++ {
		l.Add(ms(i*100), 50*time.Millisecond)
		s.Add(ms(i*100), float64(i))
	}
	since, until := ms(800), ms(200)
	if g, b := l.Counts(since, until, time.Second); g != 0 || b != 0 {
		t.Errorf("Counts = (%d,%d), want (0,0)", g, b)
	}
	if g, d, v := l.CountsByOutcome(since, until, time.Second); g != 0 || d != 0 || v != 0 {
		t.Errorf("CountsByOutcome = (%d,%d,%d), want zeros", g, d, v)
	}
	if rts := l.ResponseTimes(since, until); len(rts) != 0 {
		t.Errorf("ResponseTimes = %v, want empty", rts)
	}
	if _, err := l.Percentile(50, since, until); err == nil {
		t.Error("Percentile over an inverted window: want the empty-window error")
	}
	if w := l.Window(since, until); w != nil {
		t.Errorf("Window = %v, want nil", w)
	}
	if r := l.GoodputRate(since, until, time.Second) + l.ThroughputRate(since, until); r != 0 {
		t.Errorf("rates = %g, want 0", r)
	}
	if g, tp := l.BucketRates(since, until, 100*time.Millisecond, time.Second); g != nil || tp != nil {
		t.Errorf("BucketRates = %v %v, want nil", g, tp)
	}
	if w := s.Window(since, until); w != nil {
		t.Errorf("Series.Window = %v, want nil", w)
	}
	if m := s.BucketMeans(since, until, 100*time.Millisecond); m != nil {
		t.Errorf("Series.BucketMeans = %v, want nil", m)
	}
}

// TestChunkedAppendNeverMoves pins the no-copy property: growing the log
// by several chunks leaves every stored element where it was.
func TestChunkedAppendNeverMoves(t *testing.T) {
	var l CompletionLog
	l.Add(0, time.Millisecond)
	first := l.completions.at(0)
	for i := 1; i < 5*chunkLen; i++ {
		l.Add(ms(i), time.Millisecond)
	}
	if l.completions.at(0) != first {
		t.Fatal("appending moved the first completion")
	}
	l.Prune(ms(chunkLen + 10)) // drops the first chunk and part of the second
	if got := len(l.completions.c); got != 4 {
		t.Errorf("chunks after prune = %d, want 4", got)
	}
}

// TestCompletionLogAddAllocFree pins AddFlagged's steady state at zero
// allocations per append, for a growing log and for one pruned behind
// its appends: either allocates one 24 KiB chunk per 1,024 appends,
// which averages to zero.
func TestCompletionLogAddAllocFree(t *testing.T) {
	var grow CompletionLog
	var at sim.Time
	if avg := testing.AllocsPerRun(10*chunkLen, func() {
		at += sim.Time(time.Millisecond)
		grow.AddFlagged(at, time.Millisecond, false)
	}); avg != 0 {
		t.Errorf("growing log: %.3f allocs per AddFlagged, want 0", avg)
	}

	var pruned CompletionLog
	at = 0
	add := func() {
		at += sim.Time(time.Millisecond)
		pruned.AddFlagged(at, time.Millisecond, false)
		if at%sim.Time(time.Second) == 0 {
			pruned.Prune(at - 3*sim.Time(time.Second))
		}
	}
	for i := 0; i < 10*chunkLen; i++ {
		add()
	}
	if avg := testing.AllocsPerRun(10*chunkLen, add); avg != 0 {
		t.Errorf("pruned log: %.3f allocs per AddFlagged, want 0", avg)
	}
}
