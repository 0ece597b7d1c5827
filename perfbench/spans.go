package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one timed interval of the traced run. Start and End are
// nanoseconds since the recorder's epoch; Parent is -1 for a root.
type span struct {
	ID, Parent int
	Name       string
	Start, End int64
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps the traced run's spans in memory until they are
// written out at the end. Spans nest by call order: a span started while
// another is open becomes its child. A nil recorder records nothing, so
// the untraced arm runs the same code with tracing off.
type recorder struct {
	epoch time.Time
	spans []span
	open  []int
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now()} //soravet:allow wallclock the span recorder measures host time by design
}

func (r *recorder) now() int64 {
	return int64(time.Since(r.epoch)) //soravet:allow wallclock the span recorder measures host time by design
}

// start opens a span named name under the innermost open span and
// returns its id.
func (r *recorder) start(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Start: r.now()})
	r.open = append(r.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].End = r.now()
	r.open = r.open[:len(r.open)-1]
}

// selfTimes returns each span's self time: its duration minus the union
// of its children's intervals, clipped to the span. Children may overlap
// each other (spans merged from several recorders or threads); their
// union is counted once.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered returns how much of parent's interval the union of kids
// covers.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] <= curHi:
			curHi = max(curHi, v[1])
		default:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		}
	}
	return total + curHi - curLo
}

// spanTotal is the per-name aggregate of a span set.
type spanTotal struct {
	count   int
	totalNs int64
	selfNs  int64
}

// totals aggregates spans by name.
func totals(spans []span) map[string]*spanTotal {
	self := selfTimes(spans)
	out := make(map[string]*spanTotal)
	for i, s := range spans {
		t := out[s.Name]
		if t == nil {
			t = &spanTotal{}
			out[s.Name] = t
		}
		t.count++
		t.totalNs += s.dur()
		t.selfNs += self[i]
	}
	return out
}

// seconds returns the total and self seconds of the named spans.
func seconds(tot map[string]*spanTotal, name string) (total, self float64) {
	if t := tot[name]; t != nil {
		return float64(t.totalNs) / 1e9, float64(t.selfNs) / 1e9
	}
	return 0, 0
}

// writeSpans writes one tab-separated line per span: id, parent, name,
// start_ns, end_ns, self_ns.
func writeSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	self := selfTimes(spans)
	fmt.Fprintf(bw, "id\tparent\tname\tstart_ns\tend_ns\tself_ns\n")
	for i, s := range spans {
		fmt.Fprintf(bw, "%d\t%d\t%s\t%d\t%d\t%d\n", s.ID, s.Parent, s.Name, s.Start, s.End, self[i])
	}
	return bw.Flush()
}
