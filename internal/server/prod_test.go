package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/eq"
	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/store"
	"repro/internal/sweep"
)

// Production-hardening tests (PR 6): the /metrics exposition, the pinned
// JSON error schema, admission control, fault degradation, the
// concurrency soak, and writer/replica byte-identity.

// parseErrorBody asserts the pinned error schema {"error": ..., "status": ...}
// and that the embedded status matches the transport status.
func parseErrorBody(t *testing.T, status int, body string) errorBody {
	t.Helper()
	var eb errorBody
	if err := json.Unmarshal([]byte(body), &eb); err != nil {
		t.Fatalf("error body is not the pinned schema: %v: %s", err, body)
	}
	if eb.Error == "" || eb.Status != status {
		t.Fatalf("error body %+v does not mirror transport status %d", eb, status)
	}
	// Nothing beyond the pinned fields sneaks in.
	var raw map[string]any
	if err := json.Unmarshal([]byte(body), &raw); err != nil || len(raw) != 2 {
		t.Fatalf("error schema grew fields: %s", body)
	}
	return eb
}

// TestErrorSchemaEveryEndpoint: every endpoint's every failure mode
// returns the same two-field JSON error object with the status mirrored
// in the body — the schema clients are allowed to depend on.
func TestErrorSchemaEveryEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxN: 5, MaxAlphas: 2, MaxCheckN: 6})
	star := graph.Encode(game.Star(6))
	for _, tc := range []struct {
		name   string
		method string
		url    string
		body   string
		status int
	}{
		{"sweep missing n", "GET", "/v1/sweep?alphas=1", "", 400},
		{"sweep malformed n", "GET", "/v1/sweep?n=abc&alphas=1", "", 400},
		{"sweep n over cap", "GET", "/v1/sweep?n=6&alphas=1", "", 422},
		{"sweep malformed alpha", "GET", "/v1/sweep?n=4&alphas=1/0", "", 400},
		{"sweep too many alphas", "GET", "/v1/sweep?n=4&alphas=1,2,3", "", 422},
		{"sweep bad concept", "GET", "/v1/sweep?n=4&alphas=1&concepts=NOPE", "", 400},
		{"poa malformed alpha", "GET", "/v1/poa?n=4&alpha=x&concept=PS", "", 400},
		{"poa bad concept", "GET", "/v1/poa?n=4&alpha=2&concept=nope", "", 400},
		{"critical n over cap", "GET", "/v1/critical?n=9", "", 422},
		{"check malformed alpha", "POST", "/v1/check?alpha=", star, 400},
		{"check bad concept", "POST", "/v1/check?alpha=2&concept=ZZ", star, 400},
		{"check malformed graph", "POST", "/v1/check?alpha=2", "not a graph", 400},
		{"check graph over cap", "POST", "/v1/check?alpha=2", graph.Encode(game.Star(7)), 422},
		{"check multiplier over bound", "POST", "/v1/check?alpha=2&variant=mul:0=1000000000000000000", star, 400},
		{"simulate missing n", "GET", "/v1/simulate?alphas=1", "", 400},
		{"simulate malformed n", "GET", "/v1/simulate?n=one&alphas=1", "", 400},
		{"simulate n over cap", "GET", "/v1/simulate?n=501&alphas=1", "", 422},
		{"simulate malformed alpha", "GET", "/v1/simulate?n=10&alphas=1/0", "", 400},
		{"simulate trajectory cap", "GET", "/v1/simulate?n=10&alphas=1,2&trajectories=2000", "", 422},
		{"simulate bad init", "GET", "/v1/simulate?n=10&alphas=1&init=clique", "", 400},
		{"simulate bad moves", "GET", "/v1/simulate?n=10&alphas=1&moves=ne", "", 400},
		{"simulate bad scheduler", "GET", "/v1/simulate?n=10&alphas=1&scheduler=zigzag", "", 400},
		{"simulate bad seed", "GET", "/v1/simulate?n=10&alphas=1&seed=-3", "", 400},
		{"simulate bad p", "GET", "/v1/simulate?n=10&alphas=1&p=1.5", "", 400},
		{"method not allowed", "GET", "/v1/check?alpha=2", "", 405},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.url, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, body)
			}
			if tc.status == 405 {
				// The mux's method rejection predates our JSON schema and is
				// exempt from it; everything we write ourselves is pinned.
				return
			}
			parseErrorBody(t, resp.StatusCode, string(body))
		})
	}
}

// TestCheckExtremeAlphaWithMultiplier: a /v1/check miss at α = 2⁶²−1 with a
// price multiplier must answer — a 200, or an error in the pinned schema —
// and never panic the handler. P5 is stable there for every concept.
func TestCheckExtremeAlphaWithMultiplier(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	p5 := graph.Encode(graph.MustFromEdges(5, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}}))
	resp, err := http.Post(ts.URL+"/v1/check?alpha=4611686018427387903&variant=mul:0=3&witness=1",
		"text/plain", strings.NewReader(p5))
	if err != nil {
		t.Fatalf("no reply (handler panicked?): %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		parseErrorBody(t, resp.StatusCode, string(body))
		return
	}
	var out struct {
		Results []struct {
			Concept string `json:"concept"`
			Stable  bool   `json:"stable"`
			Witness string `json:"witness"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &out); err != nil || len(out.Results) != 9 {
		t.Fatalf("bad reply (%v): %s", err, body)
	}
	for _, r := range out.Results {
		if !r.Stable {
			t.Errorf("%s: unstable with witness %q", r.Concept, r.Witness)
		}
	}
}

// TestCheckDeadlineExceeded: a /v1/check that cannot finish inside
// RequestTimeout answers 504 in the pinned schema.
func TestCheckDeadlineExceeded(t *testing.T) {
	_, ts := newTestServer(t, Config{RequestTimeout: time.Nanosecond})
	resp, err := http.Post(ts.URL+"/v1/check?alpha=2", "text/plain",
		strings.NewReader(graph.Encode(game.Star(5))))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, body)
	}
	parseErrorBody(t, resp.StatusCode, string(body))
}

// TestRateLimiting: with a one-token bucket the second immediate request
// from the same client is a 429 with Retry-After, in the pinned schema,
// and the rejection shows up in /healthz and /metrics. /healthz itself is
// never limited.
func TestRateLimiting(t *testing.T) {
	_, ts := newTestServer(t, Config{RatePerSec: 0.0001, Burst: 1})
	if status, body := get(t, ts.URL+"/v1/critical?n=3"); status != http.StatusOK {
		t.Fatalf("first request: status %d: %s", status, body)
	}
	resp, err := http.Get(ts.URL + "/v1/critical?n=3")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	parseErrorBody(t, resp.StatusCode, string(body))

	for i := 0; i < 3; i++ {
		if status, _ := get(t, ts.URL+"/healthz"); status != http.StatusOK {
			t.Fatal("healthz must bypass rate limiting")
		}
	}
	var h struct {
		Rejected map[string]int64 `json:"requests_rejected"`
	}
	_, hb := get(t, ts.URL+"/healthz")
	if err := json.Unmarshal([]byte(hb), &h); err != nil {
		t.Fatal(err)
	}
	if h.Rejected["rate"] != 1 {
		t.Fatalf("healthz rejected = %v, want rate:1", h.Rejected)
	}
	_, mb := get(t, ts.URL+"/metrics")
	if !strings.Contains(mb, `bncg_http_requests_rejected_total{reason="rate"} 1`) {
		t.Fatalf("rejection missing from /metrics:\n%s", mb)
	}
}

// TestConcurrencyGate: with every in-flight slot and queue position
// occupied a new request is shed immediately with 429; a queued request
// outliving QueueWait gets 503. Observability routes bypass the gate.
func TestConcurrencyGate(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInflight: 1, MaxQueue: 1, QueueWait: 100 * time.Millisecond})

	// Occupy the only slot directly — deterministic, no slow handler races.
	if err := s.gate.enter(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.gate.leave()

	// Fill the one queue position with a request that will wait out
	// QueueWait and come back 503.
	type result struct {
		status int
		body   string
	}
	queued := make(chan result, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/critical?n=3")
		if err != nil {
			queued <- result{0, err.Error()}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		queued <- result{resp.StatusCode, string(b)}
	}()
	// Wait until it is actually queued before probing the full-queue path.
	deadline := time.Now().Add(5 * time.Second)
	for s.gate.queuedCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	status, body := get(t, ts.URL+"/v1/critical?n=3")
	if status != http.StatusTooManyRequests {
		t.Fatalf("full queue: status %d, want 429: %s", status, body)
	}
	parseErrorBody(t, status, body)

	r := <-queued
	if r.status != http.StatusServiceUnavailable {
		t.Fatalf("queued request: status %d, want 503: %s", r.status, r.body)
	}
	parseErrorBody(t, r.status, r.body)

	if status, _ := get(t, ts.URL+"/metrics"); status != http.StatusOK {
		t.Fatal("metrics must bypass the gate")
	}
	_, mb := get(t, ts.URL+"/metrics")
	for _, want := range []string{
		`bncg_http_requests_rejected_total{reason="capacity"} 1`,
		`bncg_http_requests_rejected_total{reason="queue_timeout"} 1`,
	} {
		if !strings.Contains(mb, want) {
			t.Fatalf("missing %q in /metrics:\n%s", want, mb)
		}
	}
}

// TestMetricsExposition: after known traffic, /metrics carries the
// per-route counters and latency histograms, the cache hit ratio, and the
// store gauges — in well-formed Prometheus text exposition.
func TestMetricsExposition(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cache := sweep.NewCache()
	cache.Persist(st)
	defer cache.Persist(nil)
	_, ts := newTestServer(t, Config{Cache: cache, Store: st})

	star := graph.Encode(game.Star(5))
	for i := 0; i < 3; i++ {
		resp, err := http.Post(ts.URL+"/v1/check?alpha=2", "text/plain", strings.NewReader(star))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	get(t, ts.URL+"/v1/sweep?n=4&alphas=1&concepts=PS")
	get(t, ts.URL+"/v1/sweep?nope") // a 400 to split the code label
	get(t, ts.URL+"/no/such/path")  // lands in route="other"

	_, body := get(t, ts.URL+"/metrics")

	for _, want := range []string{
		`bncg_http_requests_total{route="/v1/check",code="200"} 3`,
		`bncg_http_requests_total{route="/v1/sweep",code="200"} 1`,
		`bncg_http_requests_total{route="/v1/sweep",code="400"} 1`,
		`bncg_http_requests_total{route="other",code="404"} 1`,
		`bncg_http_request_duration_seconds_count{route="/v1/check"} 3`,
		`bncg_http_request_duration_seconds_bucket{route="/v1/check",le="+Inf"} 3`,
		"# TYPE bncg_http_request_duration_seconds histogram",
		"bncg_http_inflight_requests",
		"bncg_sweep_flights_started_total 1",
		`bncg_cache_entries{kind="certificate"}`,
		"bncg_cache_hits_total",
		"bncg_cache_misses_total",
		"bncg_cache_hit_ratio",
		`bncg_store_records{kind="verdict"}`,
		"bncg_store_disk_bytes",
		"bncg_store_flush_failures_total 0",
		"bncg_readonly 0",
		"bncg_uptime_seconds",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("missing %q in /metrics", want)
		}
	}
	if t.Failed() {
		t.Fatalf("exposition:\n%s", body)
	}

	// The second /v1/check run hit the cache for every concept; the
	// exposed ratio must reflect hits and misses both non-zero.
	ratio := metricValue(t, body, "bncg_cache_hit_ratio")
	if ratio <= 0 || ratio >= 1 {
		t.Fatalf("cache hit ratio %v, want strictly between 0 and 1", ratio)
	}

	// Histogram buckets are cumulative and end at the count.
	counts := bucketCounts(t, body, "/v1/check")
	for i := 1; i < len(counts); i++ {
		if counts[i] < counts[i-1] {
			t.Fatalf("histogram not cumulative: %v", counts)
		}
	}
	if counts[len(counts)-1] != 3 {
		t.Fatalf("+Inf bucket %d, want 3", counts[len(counts)-1])
	}
}

func metricValue(t *testing.T, exposition, name string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`)
	m := re.FindStringSubmatch(exposition)
	if m == nil {
		t.Fatalf("metric %s not found", name)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("metric %s: %v", name, err)
	}
	return v
}

func bucketCounts(t *testing.T, exposition, route string) []int64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^bncg_http_request_duration_seconds_bucket\{route="` +
		regexp.QuoteMeta(route) + `",le="[^"]+"\} (\d+)$`)
	var counts []int64
	for _, m := range re.FindAllStringSubmatch(exposition, -1) {
		v, _ := strconv.ParseInt(m[1], 10, 64)
		counts = append(counts, v)
	}
	if len(counts) == 0 {
		t.Fatalf("no buckets for %s", route)
	}
	return counts
}

// TestServeDegradedOnFlushFailure: with the store's writer failing, the
// daemon keeps answering (serve-stale), /healthz flips to "degraded", and
// the failure count is visible on /metrics — the fault-injection harness
// driven end to end through HTTP.
func TestServeDegradedOnFlushFailure(t *testing.T) {
	var failWrites atomic.Bool
	st, err := store.Open(t.TempDir(), store.Options{
		FlushEvery: 1, // every Put flushes — and fails — immediately
		WrapSegmentWriter: func(w store.WriteSyncer) store.WriteSyncer {
			return faultySyncer{w, &failWrites}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cache := sweep.NewCache()
	cache.Persist(st)
	defer cache.Persist(nil)
	_, ts := newTestServer(t, Config{Cache: cache, Store: st})

	failWrites.Store(true)
	star := graph.Encode(game.Star(5))
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/v1/check?alpha=2", "text/plain", strings.NewReader(star))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d failed while store is failing: %d %s", i, resp.StatusCode, b)
		}
	}
	if st.Stats().FlushFailures == 0 {
		t.Fatal("fault injection never fired")
	}

	_, hb := get(t, ts.URL+"/healthz")
	var h struct {
		Status string       `json:"status"`
		Store  *store.Stats `json:"store"`
	}
	if err := json.Unmarshal([]byte(hb), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" || h.Store == nil || h.Store.FlushFailures == 0 {
		t.Fatalf("healthz did not degrade: %s", hb)
	}
	_, mb := get(t, ts.URL+"/metrics")
	if metricValue(t, mb, "bncg_store_flush_failures_total") == 0 {
		t.Fatal("flush failures missing from /metrics")
	}

	// Fault heals: the daemon recovers to "ok"-with-history — still
	// serving, pending records flushable again.
	failWrites.Store(false)
	if err := st.Flush(); err != nil {
		t.Fatalf("flush after heal: %v", err)
	}
	if st.Stats().Pending != 0 {
		t.Fatal("pending records stuck after heal")
	}
}

type faultySyncer struct {
	store.WriteSyncer
	fail *atomic.Bool
}

func (f faultySyncer) Write(p []byte) (int, error) {
	if f.fail.Load() {
		return 0, fmt.Errorf("injected write fault")
	}
	return f.WriteSyncer.Write(p)
}

// TestServeSoak: many parallel clients across /v1/check, /v1/sweep,
// /healthz and /metrics — a third of them disconnecting mid-request —
// leave the daemon consistent: no goroutine leaks, in-flight back to
// zero, and request accounting that adds up. Run under -race this is the
// concurrency certification of the admission/metrics middleware.
func TestServeSoak(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, MaxInflight: 8, MaxQueue: 64, QueueWait: 5 * time.Second})
	star := graph.Encode(game.Star(5))
	before := runtime.NumGoroutine()

	const clients = 24
	var wg sync.WaitGroup
	var completed atomic.Int64
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch i % 4 {
			case 0:
				resp, err := http.Post(ts.URL+"/v1/check?alpha=7/3", "text/plain", strings.NewReader(star))
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					completed.Add(1)
				}
			case 1:
				// Disconnect mid-request: cancel while the body streams.
				ctx, cancel := context.WithCancel(context.Background())
				req, _ := http.NewRequestWithContext(ctx, "GET",
					ts.URL+"/v1/sweep?n=5&alphas=1/2,1,2,3&concepts=all", nil)
				resp, err := http.DefaultClient.Do(req)
				if err == nil {
					buf := make([]byte, 256)
					resp.Body.Read(buf) // first bytes, then hang up
					cancel()
					resp.Body.Close()
				}
				cancel()
				completed.Add(1)
			case 2:
				resp, err := http.Get(ts.URL + "/metrics")
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode == http.StatusOK {
						completed.Add(1)
					}
				}
			default:
				resp, err := http.Get(ts.URL + "/healthz")
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode == http.StatusOK {
						completed.Add(1)
					}
				}
			}
		}(i)
	}
	wg.Wait()
	if completed.Load() < clients-clients/4 {
		t.Fatalf("only %d/%d clients completed", completed.Load(), clients)
	}
	// Pooled keep-alive connections hold client goroutines; retire them
	// before the leak check so only daemon-side goroutines are measured.
	http.DefaultClient.CloseIdleConnections()
	waitForGoroutines(t, before)
	if got := s.inflight.Load(); got != 0 {
		t.Fatalf("in-flight gauge stuck at %d", got)
	}
	if q := s.gate.queuedCount(); q != 0 {
		t.Fatalf("queue gauge stuck at %d", q)
	}
}

// TestReplicaByteIdentity: a writer daemon and a -readonly replica over
// the same store directory answer every persisted (class, concept, α)
// /v1/check byte-identically — including classes the writer ingests and
// flushes only after the replica booted, once the replica re-warms.
func TestReplicaByteIdentity(t *testing.T) {
	dir := t.TempDir()
	wst, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer wst.Close()
	wcache := sweep.NewCache()
	wcache.Persist(wst)
	defer wcache.Persist(nil)

	ingest := func(n int) {
		if _, err := sweep.Run(context.Background(), sweep.Options{
			N:        n,
			Alphas:   []game.Alpha{game.A(2)},
			Concepts: eq.Concepts(),
			Cache:    wcache,
		}); err != nil {
			t.Fatal(err)
		}
		if err := wst.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	ingest(4)

	rst, err := store.Open(dir, store.Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rst.Close()
	rcache := sweep.NewCache()
	rcache.WarmStart(rst)

	wsrv, wts := newTestServer(t, Config{Cache: wcache, Store: wst})
	rsrv, rts := newTestServer(t, Config{Cache: rcache, Store: rst, ReadOnly: true, RewarmInterval: -1})
	defer wsrv.Close()
	defer rsrv.Close()

	compare := func(n int) {
		t.Helper()
		queries := 0
		for g := range graph.AllClasses(n, graph.EnumOptions{}) {
			body := graph.Encode(g)
			for _, alpha := range []string{"1/2", "2", "7/3", "5"} {
				for _, concept := range []string{"PS", "BSE", "BAE"} {
					url := "/v1/check?alpha=" + alpha + "&concept=" + concept
					wStatus, wBody := postCheck(t, wts.URL+url, body)
					rStatus, rBody := postCheck(t, rts.URL+url, body)
					if wStatus != http.StatusOK || rStatus != http.StatusOK {
						t.Fatalf("%s: writer %d, replica %d", url, wStatus, rStatus)
					}
					if wBody != rBody {
						t.Fatalf("%s on n=%d class diverged:\nwriter:  %s\nreplica: %s", url, n, wBody, rBody)
					}
					queries++
				}
			}
		}
		if queries == 0 {
			t.Fatal("no classes compared")
		}
	}
	compare(4)

	// The writer ingests a new size; the replica answers identically after
	// one manual re-warm pass (the production loop just calls this on a
	// ticker).
	ingest(5)
	certsBefore := rcache.Stats().Certificates
	if _, err := rsrv.rewarm(); err != nil {
		t.Fatal(err)
	}
	if rcache.Stats().Certificates <= certsBefore {
		t.Fatal("re-warm loaded nothing")
	}
	compare(5)
	compare(4)

	_, mb := get(t, rts.URL+"/metrics")
	if !strings.Contains(mb, "bncg_readonly 1") ||
		metricValue(t, mb, "bncg_replica_rewarms_total") != 1 {
		t.Fatalf("replica metrics wrong:\n%s", mb)
	}
	var h struct {
		Role    string `json:"role"`
		Rewarms int64  `json:"rewarms"`
	}
	_, hb := get(t, rts.URL+"/healthz")
	if err := json.Unmarshal([]byte(hb), &h); err != nil {
		t.Fatal(err)
	}
	if h.Role != "replica" || h.Rewarms != 1 {
		t.Fatalf("replica healthz: %s", hb)
	}
}

func postCheck(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestReplicaRewarmLoop: the background ticker loop itself converges the
// replica on the writer without manual intervention, and Close stops it.
func TestReplicaRewarmLoop(t *testing.T) {
	before := runtime.NumGoroutine()
	dir := t.TempDir()
	wst, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer wst.Close()
	wcache := sweep.NewCache()
	wcache.Persist(wst)
	defer wcache.Persist(nil)

	rst, err := store.Open(dir, store.Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rst.Close()
	rcache := sweep.NewCache()
	rcache.WarmStart(rst)
	rsrv := New(Config{Cache: rcache, Store: rst, ReadOnly: true, RewarmInterval: 5 * time.Millisecond})

	if _, err := sweep.Run(context.Background(), sweep.Options{
		N: 4, Alphas: []game.Alpha{game.A(2)}, Concepts: eq.Concepts(), Cache: wcache,
	}); err != nil {
		t.Fatal(err)
	}
	if err := wst.Flush(); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for rcache.Stats().Certificates == 0 {
		if time.Now().After(deadline) {
			t.Fatal("re-warm loop never picked up the writer's certificates")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := rsrv.Close(); err != nil {
		t.Fatal(err)
	}
	waitForGoroutines(t, before)
}
