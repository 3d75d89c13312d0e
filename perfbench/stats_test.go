package main

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/eq"
	"repro/internal/game"
	"repro/internal/graph"
)

func TestTailLevelLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {199, 0.9}, {200, 0.95},
		{999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {100000, 0.9999},
	} {
		q := tailLevel(tc.n)
		if q != tc.want {
			t.Errorf("tailLevel(%d) = %g, want %g", tc.n, q, tc.want)
		}
		if q > 0 && beyond(tc.n, q) < 10 {
			t.Errorf("tailLevel(%d) = %g leaves only %d samples beyond", tc.n, q, beyond(tc.n, q))
		}
	}
}

func TestSummarizeReportsP99OnlyWithTenBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..1000 ms
	}
	s := summarize(xs)
	if s.samples != 1000 || s.p50 != 500 || s.p99 != 990 || s.tailQ != 0.99 || s.tail != 990 {
		t.Fatalf("summarize(1..1000) = %+v", s)
	}
	if short := summarize(xs[:999]); !math.IsNaN(short.p99) || short.tailQ != 0.95 {
		t.Fatalf("999 samples: p99 %v tail p%g, want NaN and p95", short.p99, 100*short.tailQ)
	}
}

func TestFailedRequestsMissEveryLatencyLimit(t *testing.T) {
	lat := []time.Duration{time.Millisecond, time.Duration(math.MaxInt64), 2 * time.Millisecond}
	got := ms(lat)
	if got[0] != 1 || !math.IsInf(got[1], 1) || got[2] != 2 {
		t.Fatalf("ms(%v) = %v", lat, got)
	}
	if s := summarize(got); s.p50 != 2 {
		t.Fatalf("median with one failure = %v, want 2", s.p50)
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	// One client; request 0 stalls 60 ms, so requests due every 5 ms
	// during the stall wait for it, and their latency must include that
	// wait even though each is sent only after the stall ends.
	const stall = 60 * time.Millisecond
	res := openLoop(10, 1, 5*time.Millisecond, func(_, i int) bool {
		if i == 0 {
			time.Sleep(stall)
		}
		return i != 9
	})
	for i := 1; i < 9; i++ {
		due := time.Duration(i) * 5 * time.Millisecond
		if min := stall - due; res.latency[i] < min {
			t.Errorf("request %d latency %v, want at least %v (queued behind the stall)", i, res.latency[i], min)
		}
	}
	if res.latency[9] != time.Duration(math.MaxInt64) {
		t.Errorf("failed request latency %v, want the failure marker", res.latency[9])
	}
	for i, l := range res.late {
		if l < 0 || l > stall {
			t.Errorf("generator released request %d %v late; it must not wait for the stalled client", i, l)
		}
	}
}

func TestVerifyCountsRefusalsAndWrongVerdicts(t *testing.T) {
	star, err := graph.FromEdges(6, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 0, V: 4}, {U: 0, V: 5}})
	if err != nil {
		t.Fatal(err)
	}
	// The star is pairwise stable at α = 3 (removing costs a spoke its
	// whole distance sum; adding saves at most 1 per endpoint).
	req := &checkReq{hit: true, g: star, concept: eq.PS, alpha: game.A(3)}
	reply := func(stable, fromCache bool) []byte {
		return []byte(fmt.Sprintf(`{"results":[{"concept":"PS","stable":%v,"from_cache":%v}]}`, stable, fromCache))
	}
	for _, tc := range []struct {
		name string
		x    exchange
		ok   bool
	}{
		{"right verdict", exchange{req: req, status: 200, body: reply(true, true)}, true},
		{"wrong verdict", exchange{req: req, status: 200, body: reply(false, true)}, false},
		{"hit not from a certificate", exchange{req: req, status: 200, body: reply(true, false)}, false},
		{"rate limited", exchange{req: req, status: 429, body: []byte(`{"error":"rate limit exceeded","status":429}`)}, false},
		{"queue timeout", exchange{req: req, status: 503}, false},
		{"transport error", exchange{req: req, err: errors.New("connection refused")}, false},
	} {
		if err := verify(&tc.x); (err == nil) != tc.ok {
			t.Errorf("%s: verify = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
	if got := errorShare(3, 12); got != 0.25 {
		t.Errorf("errorShare(3, 12) = %v", got)
	}
	o := newOutcome()
	o.note("ok", nil)
	o.note("bad", errors.New("digest mismatch"))
	if o.attempted != 2 || o.failed != 1 {
		t.Errorf("outcome after one good and one bad check: %d attempted, %d failed", o.attempted, o.failed)
	}
}

func TestSelfTimeSubtractsChildCover(t *testing.T) {
	ms := time.Millisecond
	tr := &tracer{spans: []span{
		{name: "bench.replay", parent: noSpan, start: 0, end: 100 * ms},
		{name: "eq.Certify.RE", parent: 0, start: 10 * ms, end: 40 * ms},
		{name: "sweep.Cache.PutCert", parent: 0, start: 30 * ms, end: 50 * ms}, // overlaps the first child
		{name: "graph.Decode", parent: 1, start: 12 * ms, end: 14 * ms},
	}}
	self := tr.selfTimes()
	want := []time.Duration{60 * ms, 28 * ms, 20 * ms, 2 * ms}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%d] = %v, want %v", i, self[i], want[i])
		}
	}
}
