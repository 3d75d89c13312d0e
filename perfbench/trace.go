package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

// noSpan is the parent of a root span and the request id of a span that
// belongs to no request.
const noSpan = -1

// span is one timed call the benchmark made into a layer. The layer is the
// name's first dot-separated word.
type span struct {
	name       string
	parent     int
	req        int
	start, end time.Duration // since the tracer's origin
}

func (s span) dur() time.Duration { return s.end - s.start }

func (s span) layer() string {
	l, _, _ := strings.Cut(s.name, ".")
	return l
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced replays run the same code. It is not
// safe for concurrent use: only single-goroutine replays record spans.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return noSpan
	}
	t.spans = append(t.spans, span{name: name, parent: parent, req: req, start: time.Since(t.origin)})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].end = time.Since(t.origin)
	}
}

// selfTimes returns each span's duration minus the part of it that its
// children cover.
func (t *tracer) selfTimes() []time.Duration {
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.parent != noSpan {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] = s.dur() - covered(t.spans, children[i])
	}
	return self
}

// covered is the length of the union of the spans' intervals.
func covered(spans []span, ids []int) time.Duration {
	ivs := make([]span, len(ids))
	for i, id := range ids {
		ivs[i] = spans[id]
	}
	slices.SortFunc(ivs, func(a, b span) int { return int(a.start - b.start) })
	var total time.Duration
	var curStart, curEnd time.Duration
	open := false
	for _, s := range ivs {
		switch {
		case !open:
			curStart, curEnd, open = s.start, s.end, true
		case s.start > curEnd:
			total += curEnd - curStart
			curStart, curEnd = s.start, s.end
		case s.end > curEnd:
			curEnd = s.end
		}
	}
	if open {
		total += curEnd - curStart
	}
	return total
}

// stat is the count and total duration of the spans of one name.
type stat struct {
	calls int
	total time.Duration
}

func (s stat) meanUS() float64 {
	if s.calls == 0 {
		return 0
	}
	return float64(s.total) / float64(s.calls) / float64(time.Microsecond)
}

// byName aggregates span durations per name.
func (t *tracer) byName() map[string]stat {
	out := map[string]stat{}
	for _, s := range t.spans {
		st := out[s.name]
		st.calls++
		st.total += s.dur()
		out[s.name] = st
	}
	return out
}

// unitSpan names the root span of one traced unit of a paired replay.
const unitSpan = "bench.unit"

// paired runs units 0..n-1 of a replay, each twice in a row: untraced,
// and traced inside a unitSpan root. Pairing each unit with itself keeps
// drift of the host out of the tracing overhead, and alternating which
// side goes first cancels the head start the second run gets from caches
// the first one warmed. It returns the untraced wall, summed over units.
func paired(tr *tracer, n int, unit func(t *tracer, parent, i int) error) (time.Duration, error) {
	var untraced time.Duration
	for i := 0; i < n; i++ {
		for side := 0; side < 2; side++ {
			if (i+side)%2 == 0 {
				start := time.Now()
				if err := unit(nil, noSpan, i); err != nil {
					return 0, err
				}
				untraced += time.Since(start)
				continue
			}
			sp := tr.begin(unitSpan, noSpan, i)
			err := unit(tr, sp, i)
			tr.end(sp)
			if err != nil {
				return 0, err
			}
		}
	}
	return untraced, nil
}

// unitOf returns the unitSpan root that span i descends from, or noSpan.
func (t *tracer) unitOf(i int) int {
	for ; i != noSpan; i = t.spans[i].parent {
		if t.spans[i].name == unitSpan {
			return i
		}
	}
	return noSpan
}

// reconcile prints the layer table of the traced units: each layer's self
// time, their sum, and the remainder of the units' wall that no layer call
// covers (the benchmark's own loop). untraced is the wall of the same
// units with tracing off; the difference is the tracing overhead, which
// it returns as a share of untraced.
func (t *tracer) reconcile(e *env, title string, untraced time.Duration) float64 {
	self := t.selfTimes()
	layers := map[string]time.Duration{}
	var wall time.Duration
	for i, s := range t.spans {
		switch {
		case s.name == unitSpan:
			wall += s.dur()
		case t.unitOf(i) != noSpan:
			layers[s.layer()] += self[i]
		}
	}
	names := make([]string, 0, len(layers))
	for l := range layers {
		names = append(names, l)
	}
	slices.Sort(names)
	share := func(d time.Duration) float64 { return 100 * d.Seconds() / wall.Seconds() }
	e.logf("reconciliation: %s", title)
	e.logf("  %-22s %12s %8s", "layer", "self_s", "share")
	var sum time.Duration
	for _, l := range names {
		sum += layers[l]
		e.logf("  %-22s %12.6f %7.2f%%", l, layers[l].Seconds(), share(layers[l]))
	}
	e.logf("  %-22s %12.6f %7.2f%%", "sum of layers", sum.Seconds(), share(sum))
	e.logf("  %-22s %12.6f %7.2f%%", "unattributed", (wall - sum).Seconds(), share(wall-sum))
	e.logf("  %-22s %12.6f", "traced wall", wall.Seconds())
	overhead := (wall - untraced).Seconds() / untraced.Seconds()
	e.logf("  %-22s %12.6f  tracing overhead %.2f%%", "untraced wall", untraced.Seconds(), 100*overhead)
	return overhead
}

// write saves the spans as NDJSON, one object per span.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, s := range t.spans {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"req":%d,"name":%q,"start_us":%d,"end_us":%d}`+"\n",
			i, s.parent, s.req, s.name, s.start.Microseconds(), s.end.Microseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracePath is where a traced run leaves its spans.
func tracePath(e *env, workload string) string {
	return filepath.Join(e.traces, fmt.Sprintf("%s-seed%d.ndjson", workload, e.seed))
}
