package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one timed call into a layer: a named interval on the host's
// monotonic clock, the span that enclosed it, and the op it belongs to.
type span struct {
	start, end int64 // ns since the tracer's epoch
	parent     int32 // index into the span slice, -1 for a root span
	name       uint16
	op         uint32
}

// tracer keeps every span of a traced run in memory, in start order; they
// are written out only when the run ends, so tracing adds no I/O to the
// measured calls. A nil *tracer is the untraced state: every method is a
// no-op, so the untraced run pays one nil check per call site.
type tracer struct {
	epoch time.Time
	names []string
	spans []span
	open  []int32 // stack of unfinished spans
	op    uint32
	limit int
}

func newTracer(names []string, limit int) *tracer {
	return &tracer{epoch: time.Now(), names: names, limit: limit, spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span named by its index in t.names, a child of the
// innermost open span.
func (t *tracer) begin(name uint16) {
	if t == nil {
		return
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.open = append(t.open, int32(len(t.spans)))
	t.spans = append(t.spans, span{start: t.now(), parent: parent, name: name, op: t.op})
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	n := len(t.open) - 1
	t.spans[t.open[n]].end = t.now()
	t.open = t.open[:n]
}

// nextOp starts a new op id for the spans that follow.
func (t *tracer) nextOp() {
	if t != nil {
		t.op++
	}
}

// full reports whether n more spans would exceed the memory limit.
func (t *tracer) full(n int) bool { return t != nil && len(t.spans)+n > t.limit }

// selfTimes returns each span's self time: its duration minus the part of
// that interval covered by its child spans. Children of one parent never
// overlap (one goroutine records them, nested by a stack), so the covered
// part is the sum of the children's durations.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		d := s.end - s.start
		self[i] += d
		if s.parent >= 0 {
			self[s.parent] -= d
		}
	}
	return self
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	calls     int
	total     int64 // summed durations, ns
	self      int64 // summed self times, ns
	durations []int64
}

// sum returns the summed durations; 0 for a name no span had.
func (l *layerTime) sum() int64 {
	if l == nil {
		return 0
	}
	return l.total
}

func (l *layerTime) meanSelf() float64 {
	if l == nil || l.calls == 0 {
		return 0
	}
	return float64(l.self) / float64(l.calls)
}

func (l *layerTime) meanTotal() float64 {
	if l == nil || l.calls == 0 {
		return 0
	}
	return float64(l.total) / float64(l.calls)
}

// aggregate sums durations and self times by span name.
func aggregate(spans []span, names []string) map[string]*layerTime {
	self := selfTimes(spans)
	out := make(map[string]*layerTime)
	for i, s := range spans {
		name := names[s.name]
		l := out[name]
		if l == nil {
			l = &layerTime{}
			out[name] = l
		}
		d := s.end - s.start
		l.calls++
		l.total += d
		l.self += self[i]
		l.durations = append(l.durations, d)
	}
	return out
}

// writeSpans dumps the spans as tab-separated lines: index, parent, op,
// name, start and end in ns since the run began, and self time.
func writeSpans(w io.Writer, header string, spans []span, names []string) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s\n# id\tparent\top\tname\tstart_ns\tend_ns\tself_ns\n", header)
	self := selfTimes(spans)
	for i, s := range spans {
		fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%d\t%d\t%d\n", i, s.parent, s.op, names[s.name], s.start, s.end, self[i])
	}
	return bw.Flush()
}

// sortedNames lists the map's keys in order, for stable reports.
func sortedNames(m map[string]*layerTime) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
