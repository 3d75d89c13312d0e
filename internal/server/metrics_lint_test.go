package server

import (
	"net/http"
	"strings"
	"testing"

	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/store"
)

// TestMetricsExpositionLints scrapes /metrics after a mixed workload —
// good requests, a 400, a rate rejection, store-backed persistence — and
// runs the body through the format linter. This is the structural guard
// on the shared obs registry: pinned sample strings live in prod_test.go,
// this test proves the whole document is well-formed Prometheus text
// (name charsets, declared types, histogram cumulativity).
func TestMetricsExpositionLints(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, ts := newTestServer(t, Config{Store: st, EnablePprof: true})

	star := graph.Encode(game.Star(4))
	post := func(query string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/check?"+query, "text/plain", strings.NewReader(star))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	for i := 0; i < 4; i++ {
		post("alpha=2&concept=PS")
	}
	post("alpha=") // 400: malformed alpha
	get(t, ts.URL+"/healthz")
	get(t, ts.URL+"/nosuchroute")

	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	if err := obs.LintExposition(strings.NewReader(body)); err != nil {
		t.Fatalf("/metrics fails exposition lint: %v", err)
	}
	for _, want := range []string{
		"bncg_http_requests_total{route=\"/v1/check\",code=\"200\"}",
		"bncg_http_request_duration_seconds_bucket{route=\"/v1/check\",le=\"+Inf\"}",
		"bncg_store_flush_failures_total 0",
		"bncg_store_rejected_writes_total 0",
		"bncg_uptime_seconds",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	// EnablePprof mounts the profiler on the daemon mux.
	code, body = get(t, ts.URL+"/debug/pprof/cmdline")
	if code != http.StatusOK || body == "" {
		t.Fatalf("/debug/pprof/cmdline = %d (%d bytes), want 200 with a body", code, len(body))
	}
}

// TestPprofDisabledByDefault: without EnablePprof the profiler routes
// must not exist.
func TestPprofDisabledByDefault(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, _ := get(t, ts.URL+"/debug/pprof/cmdline")
	if code != http.StatusNotFound {
		t.Fatalf("/debug/pprof without EnablePprof = %d, want 404", code)
	}
}
