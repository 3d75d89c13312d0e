package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// TraceSpan is one parsed span frame.
type TraceSpan struct {
	Source  string `json:"source"`
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
	Attrs   Attrs  `json:"attrs,omitempty"`
}

// TraceEvent is one parsed event frame.
type TraceEvent struct {
	Source string `json:"source"`
	Name   string `json:"name"`
	AtUS   int64  `json:"at_us"`
	Attrs  Attrs  `json:"attrs,omitempty"`
}

// Trace is the merged content of one or more trace files.
type Trace struct {
	Sources []string
	Spans   []TraceSpan
	Events  []TraceEvent
}

type rawFrame struct {
	Type    string          `json:"type"`
	V       *int            `json:"v"`
	Name    string          `json:"name"`
	Source  *string         `json:"source"`
	StartUS *int64          `json:"start_us"`
	DurUS   *int64          `json:"dur_us"`
	AtUS    *int64          `json:"at_us"`
	Attrs   Attrs           `json:"attrs"`
	Extra   json.RawMessage `json:"-"`
}

// ReadTrace parses one NDJSON trace stream. Parsing is strict — an
// unknown frame type, a missing required field, or malformed JSON is an
// error naming the offending line — so the nightly schema gate fails
// loudly instead of silently skipping frames. name identifies the
// stream in error messages.
func ReadTrace(r io.Reader, name string) (*Trace, error) {
	tr := &Trace{}
	seen := make(map[string]bool)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	lineno := 0
	sawHeader := false
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var f rawFrame
		dec := json.NewDecoder(strings.NewReader(line))
		dec.DisallowUnknownFields()
		// DisallowUnknownFields needs a struct with every legal field;
		// rawFrame has exactly the schema's fields, so any extra key in
		// the input is a schema violation.
		if err := dec.Decode(&f); err != nil {
			return nil, fmt.Errorf("%s:%d: bad frame: %v", name, lineno, err)
		}
		if f.Source == nil {
			return nil, fmt.Errorf("%s:%d: frame missing source", name, lineno)
		}
		src := *f.Source
		switch f.Type {
		case "header":
			if f.V == nil || *f.V != TraceVersion {
				return nil, fmt.Errorf("%s:%d: unsupported trace version", name, lineno)
			}
			if f.StartUS == nil {
				return nil, fmt.Errorf("%s:%d: header missing start_us", name, lineno)
			}
			sawHeader = true
		case "span":
			if !sawHeader {
				return nil, fmt.Errorf("%s:%d: span before header", name, lineno)
			}
			if f.Name == "" || f.StartUS == nil || f.DurUS == nil {
				return nil, fmt.Errorf("%s:%d: span missing name/start_us/dur_us", name, lineno)
			}
			if *f.DurUS < 0 {
				return nil, fmt.Errorf("%s:%d: span with negative dur_us", name, lineno)
			}
			tr.Spans = append(tr.Spans, TraceSpan{Source: src, Name: f.Name, StartUS: *f.StartUS, DurUS: *f.DurUS, Attrs: f.Attrs})
		case "event":
			if !sawHeader {
				return nil, fmt.Errorf("%s:%d: event before header", name, lineno)
			}
			if f.Name == "" || f.AtUS == nil {
				return nil, fmt.Errorf("%s:%d: event missing name/at_us", name, lineno)
			}
			tr.Events = append(tr.Events, TraceEvent{Source: src, Name: f.Name, AtUS: *f.AtUS, Attrs: f.Attrs})
		default:
			return nil, fmt.Errorf("%s:%d: unknown frame type %q", name, lineno, f.Type)
		}
		if !seen[src] {
			seen[src] = true
			tr.Sources = append(tr.Sources, src)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %v", name, err)
	}
	if lineno == 0 {
		return nil, fmt.Errorf("%s: empty trace", name)
	}
	sort.Strings(tr.Sources)
	return tr, nil
}

// ReadTraceFiles parses and merges trace files (e.g. the per-worker
// shard traces of one fleet run) into a single Trace on the shared
// wall clock.
func ReadTraceFiles(paths ...string) (*Trace, error) {
	merged := &Trace{}
	seen := make(map[string]bool)
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		tr, err := ReadTrace(f, p)
		f.Close()
		if err != nil {
			return nil, err
		}
		merged.Spans = append(merged.Spans, tr.Spans...)
		merged.Events = append(merged.Events, tr.Events...)
		for _, s := range tr.Sources {
			if !seen[s] {
				seen[s] = true
				merged.Sources = append(merged.Sources, s)
			}
		}
	}
	sort.Strings(merged.Sources)
	return merged, nil
}

// StageStat aggregates all spans sharing a name. Totals are inclusive:
// a nested stage (certify inside class inside range) also counts inside
// its ancestors, so stage totals are compared against wall-clock
// individually, not summed.
type StageStat struct {
	Name      string  `json:"name"`
	Count     int     `json:"count"`
	TotalUS   int64   `json:"total_us"`
	MinUS     int64   `json:"min_us"`
	MaxUS     int64   `json:"max_us"`
	WallShare float64 `json:"wall_share"`
}

// ConceptDur is one concept's certify time within a class, with the
// actor distance evaluations its scan ran (also 0 when the span does not
// carry the count, as in traces written before spans had it).
type ConceptDur struct {
	Concept string `json:"concept"`
	DurUS   int64  `json:"dur_us"`
	Evals   int64  `json:"evals,omitempty"`
}

// ClassStat is one (slow) class span with its per-concept breakdown.
type ClassStat struct {
	Class    int64        `json:"class"`
	Source   string       `json:"source"`
	DurUS    int64        `json:"dur_us"`
	Cached   bool         `json:"cached"`
	Concepts []ConceptDur `json:"concepts,omitempty"`
}

// Lane is one source's row in the fleet timeline.
type Lane struct {
	Source  string `json:"source"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
	// BusyUS is the union of all span intervals in the lane (nested and
	// overlapping spans count once).
	BusyUS int64 `json:"busy_us"`
	// Coverage is BusyUS over the lane's own wall-clock extent.
	Coverage float64 `json:"coverage"`
	Spans    int     `json:"spans"`
	Steals   int     `json:"steals"`
	// Bar is the rendered text lane: '#' covered, '.' idle, 'S' steal.
	Bar string `json:"bar"`
}

// Report is the analyzer output behind `bncg trace`.
type Report struct {
	// SchemaVersion is the public JSON payload generation stamp; the
	// caller (bncg trace) sets it — obs cannot import the canonical
	// constant without inverting the dependency on sweep.
	SchemaVersion int         `json:"schema_version"`
	Files         int         `json:"files"`
	Sources       []string    `json:"sources"`
	Spans         int         `json:"spans"`
	Events        int         `json:"events"`
	StartUS       int64       `json:"start_us"`
	EndUS         int64       `json:"end_us"`
	WallUS        int64       `json:"wall_us"`
	Stages        []StageStat `json:"stages"`
	Slowest       []ClassStat `json:"slowest_classes,omitempty"`
	Lanes         []Lane      `json:"lanes"`
	Coverage      float64     `json:"coverage"`
}

func attrInt(a Attrs, key string) (int64, bool) {
	switch v := a[key].(type) {
	case float64:
		return int64(v), true
	case int64:
		return v, true
	case int:
		return int64(v), true
	}
	return 0, false
}

func attrBool(a Attrs, key string) bool {
	b, _ := a[key].(bool)
	return b
}

const laneWidth = 64

// Analyze aggregates a merged trace into a Report. topK bounds the
// slowest-classes table (0 disables it).
func Analyze(tr *Trace, topK int) *Report {
	rep := &Report{
		Sources: append([]string(nil), tr.Sources...),
		Spans:   len(tr.Spans),
		Events:  len(tr.Events),
	}
	if len(tr.Spans) == 0 {
		return rep
	}

	// Global extent.
	rep.StartUS = math.MaxInt64
	for _, s := range tr.Spans {
		if s.StartUS < rep.StartUS {
			rep.StartUS = s.StartUS
		}
		if end := s.StartUS + s.DurUS; end > rep.EndUS {
			rep.EndUS = end
		}
	}
	rep.WallUS = rep.EndUS - rep.StartUS

	// Stage breakdown.
	stages := make(map[string]*StageStat)
	for _, s := range tr.Spans {
		st := stages[s.Name]
		if st == nil {
			st = &StageStat{Name: s.Name, MinUS: math.MaxInt64}
			stages[s.Name] = st
		}
		st.Count++
		st.TotalUS += s.DurUS
		if s.DurUS < st.MinUS {
			st.MinUS = s.DurUS
		}
		if s.DurUS > st.MaxUS {
			st.MaxUS = s.DurUS
		}
	}
	for _, st := range stages {
		if rep.WallUS > 0 {
			st.WallShare = float64(st.TotalUS) / float64(rep.WallUS)
		}
		rep.Stages = append(rep.Stages, *st)
	}
	sort.Slice(rep.Stages, func(i, j int) bool {
		a, b := rep.Stages[i], rep.Stages[j]
		if a.TotalUS != b.TotalUS {
			return a.TotalUS > b.TotalUS
		}
		return a.Name < b.Name
	})

	// Slowest classes with per-concept certify breakdowns.
	if topK > 0 {
		type classKey struct {
			source string
			class  int64
		}
		certs := make(map[classKey][]ConceptDur)
		for _, s := range tr.Spans {
			if s.Name != "certify" {
				continue
			}
			if class, ok := attrInt(s.Attrs, "class"); ok {
				concept, _ := s.Attrs["concept"].(string)
				evals, _ := attrInt(s.Attrs, "evals")
				k := classKey{s.Source, class}
				certs[k] = append(certs[k], ConceptDur{Concept: concept, DurUS: s.DurUS, Evals: evals})
			}
		}
		for _, s := range tr.Spans {
			if s.Name != "class" {
				continue
			}
			class, ok := attrInt(s.Attrs, "class")
			if !ok {
				continue
			}
			cs := certs[classKey{s.Source, class}]
			sort.Slice(cs, func(i, j int) bool { return cs[i].DurUS > cs[j].DurUS })
			rep.Slowest = append(rep.Slowest, ClassStat{
				Class:    class,
				Source:   s.Source,
				DurUS:    s.DurUS,
				Cached:   attrBool(s.Attrs, "cached"),
				Concepts: cs,
			})
		}
		sort.Slice(rep.Slowest, func(i, j int) bool {
			a, b := rep.Slowest[i], rep.Slowest[j]
			if a.DurUS != b.DurUS {
				return a.DurUS > b.DurUS
			}
			if a.Class != b.Class {
				return a.Class < b.Class
			}
			return a.Source < b.Source
		})
		if len(rep.Slowest) > topK {
			rep.Slowest = rep.Slowest[:topK]
		}
	}

	// Per-source lanes: union of span intervals vs the lane's extent.
	bySource := make(map[string][]interval)
	spanCount := make(map[string]int)
	for _, s := range tr.Spans {
		bySource[s.Source] = append(bySource[s.Source], interval{s.StartUS, s.StartUS + s.DurUS})
		spanCount[s.Source]++
	}
	steals := make(map[string][]int64)
	for _, e := range tr.Events {
		if e.Name == "steal" {
			steals[e.Source] = append(steals[e.Source], e.AtUS)
		}
	}
	var totalBusy, totalWall int64
	for _, src := range rep.Sources {
		ivs := bySource[src]
		if len(ivs) == 0 {
			continue
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		lane := Lane{Source: src, StartUS: ivs[0].a, EndUS: ivs[0].b, Spans: spanCount[src], Steals: len(steals[src])}
		var busy int64
		curA, curB := ivs[0].a, ivs[0].b
		for _, v := range ivs[1:] {
			if v.b > lane.EndUS {
				lane.EndUS = v.b
			}
			if v.a > curB {
				busy += curB - curA
				curA, curB = v.a, v.b
			} else if v.b > curB {
				curB = v.b
			}
		}
		busy += curB - curA
		lane.BusyUS = busy
		if wall := lane.EndUS - lane.StartUS; wall > 0 {
			lane.Coverage = float64(busy) / float64(wall)
			totalBusy += busy
			totalWall += wall
		} else {
			lane.Coverage = 1
		}
		lane.Bar = renderBar(ivs, steals[src], rep.StartUS, rep.EndUS)
		rep.Lanes = append(rep.Lanes, lane)
	}
	if totalWall > 0 {
		rep.Coverage = float64(totalBusy) / float64(totalWall)
	}
	return rep
}

type interval struct{ a, b int64 }

// renderBar draws one lane scaled to the global [start,end) extent:
// '#' where any span covers the cell, '.' idle, 'S' where a steal
// event lands.
func renderBar(ivs []interval, steals []int64, start, end int64) string {
	if end <= start {
		return ""
	}
	cells := make([]byte, laneWidth)
	for i := range cells {
		cells[i] = '.'
	}
	scale := func(t int64) int {
		i := int((t - start) * laneWidth / (end - start))
		if i < 0 {
			i = 0
		}
		if i >= laneWidth {
			i = laneWidth - 1
		}
		return i
	}
	for _, v := range ivs {
		for i := scale(v.a); i <= scale(v.b-1) && i < laneWidth; i++ {
			cells[i] = '#'
		}
	}
	for _, at := range steals {
		cells[scale(at)] = 'S'
	}
	return string(cells)
}

func fmtUS(us int64) string {
	d := time.Duration(us) * time.Microsecond
	switch {
	case d >= time.Minute:
		return fmt.Sprintf("%.1fm", d.Minutes())
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(us)/1e3)
	default:
		return fmt.Sprintf("%dµs", us)
	}
}

// Text renders the human-readable report.
func (r *Report) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %d source(s), %d spans, %d events, wall %s\n",
		len(r.Sources), r.Spans, r.Events, fmtUS(r.WallUS))
	if len(r.Stages) > 0 {
		fmt.Fprintf(&b, "\n%-14s %8s %10s %10s %10s %10s %7s\n", "stage", "count", "total", "min", "avg", "max", "%wall")
		for _, st := range r.Stages {
			avg := int64(0)
			if st.Count > 0 {
				avg = st.TotalUS / int64(st.Count)
			}
			fmt.Fprintf(&b, "%-14s %8d %10s %10s %10s %10s %6.1f%%\n",
				st.Name, st.Count, fmtUS(st.TotalUS), fmtUS(st.MinUS), fmtUS(avg), fmtUS(st.MaxUS), st.WallShare*100)
		}
	}
	if len(r.Slowest) > 0 {
		fmt.Fprintf(&b, "\nslowest classes:\n")
		for _, c := range r.Slowest {
			fmt.Fprintf(&b, "  class %-6d %8s  (%s", c.Class, fmtUS(c.DurUS), c.Source)
			if c.Cached {
				b.WriteString(", cached")
			}
			b.WriteString(")")
			for i, cd := range c.Concepts {
				if i >= 3 {
					fmt.Fprintf(&b, " +%d more", len(c.Concepts)-i)
					break
				}
				sep := "  "
				if i > 0 {
					sep = ", "
				}
				fmt.Fprintf(&b, "%s%s %s", sep, cd.Concept, fmtUS(cd.DurUS))
				if cd.Evals > 0 {
					fmt.Fprintf(&b, " (%d evals)", cd.Evals)
				}
			}
			b.WriteString("\n")
		}
	}
	if len(r.Lanes) > 0 {
		fmt.Fprintf(&b, "\ntimeline ('#' busy, '.' idle, 'S' steal):\n")
		for _, l := range r.Lanes {
			fmt.Fprintf(&b, "  %-10s |%s| %5.1f%% busy, %d spans", l.Source, l.Bar, l.Coverage*100, l.Spans)
			if l.Steals > 0 {
				fmt.Fprintf(&b, ", %d steal(s)", l.Steals)
			}
			b.WriteString("\n")
		}
		fmt.Fprintf(&b, "coverage: %.1f%% of wall-clock accounted across stages\n", r.Coverage*100)
	}
	return b.String()
}
