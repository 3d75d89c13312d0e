package obs

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeTrace(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const headerLine = `{"type":"header","v":1,"source":"w1","start_us":0}` + "\n"

// TestReadTraceStrict: the parser is the nightly schema gate, so every
// malformed stream must be a loud error naming the offending line — never
// a silently skipped frame.
func TestReadTraceStrict(t *testing.T) {
	cases := []struct {
		name    string
		content string
		wantErr string
	}{
		{"empty file", "", "empty trace"},
		{"garbage line", headerLine + "not json\n", ":2: bad frame"},
		{"unknown field", headerLine + `{"type":"span","name":"s","source":"w1","start_us":1,"dur_us":1,"bogus":1}` + "\n", "bad frame"},
		{"unknown frame type", headerLine + `{"type":"metric","name":"s","source":"w1","start_us":1}` + "\n", `unknown frame type "metric"`},
		{"span before header", `{"type":"span","name":"s","source":"w1","start_us":1,"dur_us":1}` + "\n", "span before header"},
		{"event before header", `{"type":"event","name":"e","source":"w1","at_us":1}` + "\n", "event before header"},
		{"future version", `{"type":"header","v":2,"source":"w1","start_us":0}` + "\n", "unsupported trace version"},
		{"missing source", `{"type":"header","v":1,"start_us":0}` + "\n", "missing source"},
		{"span missing dur", headerLine + `{"type":"span","name":"s","source":"w1","start_us":1}` + "\n", "span missing"},
		{"negative dur", headerLine + `{"type":"span","name":"s","source":"w1","start_us":1,"dur_us":-5}` + "\n", "negative dur_us"},
		{"event missing at", headerLine + `{"type":"event","name":"e","source":"w1"}` + "\n", "event missing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadTrace(strings.NewReader(tc.content), "in")
			if err == nil {
				t.Fatalf("parsed without error, want %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestReadTraceRoundTrip: a stream a Tracer wrote parses back to the same
// spans and events.
func TestReadTraceRoundTrip(t *testing.T) {
	tr, err := ReadTrace(strings.NewReader(headerLine+
		`{"type":"span","name":"certify","source":"w1","start_us":10,"dur_us":5,"attrs":{"class":3,"concept":"PS"}}`+"\n"+
		`{"type":"event","name":"steal","source":"w1","at_us":20,"attrs":{"epoch":2}}`+"\n"), "in")
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Spans) != 1 || len(tr.Events) != 1 {
		t.Fatalf("parsed %d spans / %d events, want 1 / 1", len(tr.Spans), len(tr.Events))
	}
	s := tr.Spans[0]
	if s.Name != "certify" || s.Source != "w1" || s.StartUS != 10 || s.DurUS != 5 {
		t.Fatalf("span = %+v", s)
	}
	if class, ok := attrInt(s.Attrs, "class"); !ok || class != 3 {
		t.Fatalf("class attr = %v", s.Attrs["class"])
	}
	if tr.Events[0].AtUS != 20 {
		t.Fatalf("event = %+v", tr.Events[0])
	}
}

// syntheticFleetTrace is two worker lanes over a 1000µs window:
//   - w1 busy [0,1000) via one range span, two class spans with certify
//     children, and a steal at 500.
//   - w2 busy only [0,500): coverage 1 over its own extent but half the
//     global wall.
func syntheticFleetTrace(t *testing.T) *Trace {
	t.Helper()
	w1 := writeTrace(t, "w1.trace", headerLine+
		`{"type":"span","name":"range","source":"w1","start_us":0,"dur_us":1000,"attrs":{"start":0,"end":2}}`+"\n"+
		`{"type":"span","name":"class","source":"w1","start_us":0,"dur_us":400,"attrs":{"class":0,"worker":0}}`+"\n"+
		`{"type":"span","name":"certify","source":"w1","start_us":0,"dur_us":300,"attrs":{"class":0,"concept":"PS","evals":1234}}`+"\n"+
		`{"type":"span","name":"certify","source":"w1","start_us":300,"dur_us":100,"attrs":{"class":0,"concept":"NE"}}`+"\n"+
		`{"type":"span","name":"class","source":"w1","start_us":400,"dur_us":600,"attrs":{"class":1,"cached":true,"worker":0}}`+"\n"+
		`{"type":"event","name":"steal","source":"w1","at_us":500,"attrs":{"start":0,"end":2,"epoch":2}}`+"\n")
	w2 := writeTrace(t, "w2.trace",
		`{"type":"header","v":1,"source":"w2","start_us":0}`+"\n"+
			`{"type":"span","name":"wait","source":"w2","start_us":0,"dur_us":500}`+"\n")
	tr, err := ReadTraceFiles(w1, w2)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestAnalyzeSyntheticFleet(t *testing.T) {
	rep := Analyze(syntheticFleetTrace(t), 10)

	if rep.WallUS != 1000 || rep.StartUS != 0 || rep.EndUS != 1000 {
		t.Fatalf("extent = [%d,%d) wall %d, want [0,1000)", rep.StartUS, rep.EndUS, rep.WallUS)
	}
	if got := strings.Join(rep.Sources, ","); got != "w1,w2" {
		t.Fatalf("sources = %q", got)
	}

	// Stages sort by inclusive total, descending.
	if rep.Stages[0].Name != "class" || rep.Stages[0].TotalUS != 1000 {
		t.Fatalf("top stage = %+v, want class/1000", rep.Stages[0])
	}
	byName := map[string]StageStat{}
	for _, st := range rep.Stages {
		byName[st.Name] = st
	}
	if cs := byName["certify"]; cs.Count != 2 || cs.TotalUS != 400 || cs.MinUS != 100 || cs.MaxUS != 300 {
		t.Fatalf("certify stage = %+v", cs)
	}
	if rs := byName["range"]; rs.WallShare != 1.0 {
		t.Fatalf("range wall share = %v, want 1", rs.WallShare)
	}

	// Slowest classes join class spans with their certify children by
	// (source, class), concepts sorted slowest-first.
	if len(rep.Slowest) != 2 {
		t.Fatalf("slowest = %+v, want 2 classes", rep.Slowest)
	}
	if c := rep.Slowest[0]; c.Class != 1 || !c.Cached || c.DurUS != 600 || len(c.Concepts) != 0 {
		t.Fatalf("slowest[0] = %+v, want cached class 1", c)
	}
	if c := rep.Slowest[1]; c.Class != 0 || len(c.Concepts) != 2 ||
		c.Concepts[0] != (ConceptDur{"PS", 300, 1234}) || c.Concepts[1] != (ConceptDur{"NE", 100, 0}) {
		t.Fatalf("slowest[1] = %+v, want class 0 with PS 300 (1234 evals), NE 100", c)
	}

	// Lanes: w1 fully busy, w2 busy for its own 500µs extent. The overall
	// coverage weighs lanes by their extents: (1000+500)/(1000+500) = 1.
	if len(rep.Lanes) != 2 {
		t.Fatalf("lanes = %+v", rep.Lanes)
	}
	w1 := rep.Lanes[0]
	if w1.Source != "w1" || w1.BusyUS != 1000 || w1.Coverage != 1.0 || w1.Steals != 1 {
		t.Fatalf("w1 lane = %+v", w1)
	}
	if !strings.Contains(w1.Bar, "S") || strings.Contains(w1.Bar, ".") {
		t.Fatalf("w1 bar = %q, want fully busy with a steal mark", w1.Bar)
	}
	w2 := rep.Lanes[1]
	if w2.BusyUS != 500 || w2.Coverage != 1.0 {
		t.Fatalf("w2 lane = %+v", w2)
	}
	// w2's bar spans the global extent, so its second half is idle.
	if !strings.HasSuffix(w2.Bar, strings.Repeat(".", laneWidth/2)) {
		t.Fatalf("w2 bar = %q, want trailing idle half", w2.Bar)
	}
	if rep.Coverage != 1.0 {
		t.Fatalf("coverage = %v, want 1", rep.Coverage)
	}
}

// TestAnalyzeBusyUnion: nested and overlapping spans must count once in a
// lane's busy time, and gaps must subtract from coverage.
func TestAnalyzeBusyUnion(t *testing.T) {
	path := writeTrace(t, "u.trace", headerLine+
		`{"type":"span","name":"outer","source":"w1","start_us":0,"dur_us":400}`+"\n"+
		`{"type":"span","name":"inner","source":"w1","start_us":100,"dur_us":100}`+"\n"+
		`{"type":"span","name":"late","source":"w1","start_us":600,"dur_us":400}`+"\n")
	tr, err := ReadTraceFiles(path)
	if err != nil {
		t.Fatal(err)
	}
	rep := Analyze(tr, 0)
	lane := rep.Lanes[0]
	if lane.BusyUS != 800 {
		t.Fatalf("busy = %d, want 800 (union, not 900)", lane.BusyUS)
	}
	if lane.Coverage != 0.8 || rep.Coverage != 0.8 {
		t.Fatalf("coverage = %v / %v, want 0.8", lane.Coverage, rep.Coverage)
	}
	if rep.Slowest != nil {
		t.Fatalf("topK=0 still produced slowest classes: %+v", rep.Slowest)
	}
}

func TestAnalyzeEmptySpans(t *testing.T) {
	rep := Analyze(&Trace{Sources: []string{"w1"}}, 5)
	if rep.WallUS != 0 || len(rep.Lanes) != 0 || rep.Coverage != 0 {
		t.Fatalf("empty trace report = %+v", rep)
	}
}

// TestReportText spot-checks the human rendering the docs quote.
func TestReportText(t *testing.T) {
	text := Analyze(syntheticFleetTrace(t), 10).Text()
	for _, want := range []string{
		"trace: 2 source(s), 6 spans, 1 events, wall 1.00ms",
		"stage",
		"class",
		"slowest classes:",
		"class 1",
		"(w1, cached)",
		"PS 300µs (1234 evals), NE 100µs\n",
		"timeline ('#' busy, '.' idle, 'S' steal):",
		"coverage: 100.0% of wall-clock accounted across stages",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("report text missing %q:\n%s", want, text)
		}
	}
}
