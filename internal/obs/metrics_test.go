package obs

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// goldenRegistry builds a registry exercising every instrument kind with
// values whose float renderings are exact.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("test_ops_total", "Ops.").Add(3)
	cv := r.CounterVec("test_requests_total", "Requests.", "route", "code")
	cv.With("/v1/check", "200").Add(2)
	cv.With("weird\"\\\n", "500").Inc()
	r.GaugeFunc("test_temp", "Temp.", func() float64 { return 1.5 })
	h := r.Histogram("test_latency_seconds", "Latency.", []float64{0.5, 2})
	h.Observe(0.25)
	h.Observe(0.5)
	h.Observe(4)
	hv := r.HistogramVec("test_route_seconds", "Per-route.", []float64{1}, "route")
	hv.With("/v1/check").Observe(0.5)
	hv.With("/empty") // never observed: omitted from the exposition
	r.Histogram("test_unused_seconds", "Unused.", []float64{1})
	return r
}

// TestExpositionGolden pins the byte-exact text rendering: family order
// is registration order, sample order is sorted label order, label
// values escape \\, \" and \n, le bounds render through formatFloat, and
// observation-less histograms emit only their HELP/TYPE header.
func TestExpositionGolden(t *testing.T) {
	var b strings.Builder
	goldenRegistry().WriteText(&b)
	want := `# HELP test_ops_total Ops.
# TYPE test_ops_total counter
test_ops_total 3
# HELP test_requests_total Requests.
# TYPE test_requests_total counter
test_requests_total{route="/v1/check",code="200"} 2
test_requests_total{route="weird\"\\\n",code="500"} 1
# HELP test_temp Temp.
# TYPE test_temp gauge
test_temp 1.5
# HELP test_latency_seconds Latency.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{le="0.5"} 2
test_latency_seconds_bucket{le="2"} 2
test_latency_seconds_bucket{le="+Inf"} 3
test_latency_seconds_sum 4.75
test_latency_seconds_count 3
# HELP test_route_seconds Per-route.
# TYPE test_route_seconds histogram
test_route_seconds_bucket{route="/v1/check",le="1"} 1
test_route_seconds_bucket{route="/v1/check",le="+Inf"} 1
test_route_seconds_sum{route="/v1/check"} 0.5
test_route_seconds_count{route="/v1/check"} 1
# HELP test_unused_seconds Unused.
# TYPE test_unused_seconds histogram
`
	if got := b.String(); got != want {
		t.Fatalf("exposition drifted:\ngot:\n%swant:\n%s", got, want)
	}
}

// TestLintAcceptsOwnOutput: the format linter must pass everything the
// writer produces — the round-trip that keeps the two halves honest.
func TestLintAcceptsOwnOutput(t *testing.T) {
	var b strings.Builder
	goldenRegistry().WriteText(&b)
	if err := LintExposition(strings.NewReader(b.String())); err != nil {
		t.Fatalf("linter rejects the writer's own output: %v", err)
	}
}

// TestLintRejects feeds the linter hand-broken expositions, one per
// validation rule.
func TestLintRejects(t *testing.T) {
	const histHeader = "# HELP h H.\n# TYPE h histogram\n"
	cases := []struct {
		name, content, wantErr string
	}{
		{"sample without TYPE", "foo 1\n", "without TYPE declaration"},
		{"invalid metric name", "# HELP 0bad x\n", "invalid metric name"},
		{"unknown TYPE", "# HELP f F.\n# TYPE f widget\n", "unknown TYPE"},
		{"duplicate TYPE", "# TYPE f counter\n# TYPE f counter\n", "duplicate TYPE"},
		{"conflicting TYPE", "# TYPE f counter\n# TYPE f gauge\n", "conflicting TYPE"},
		{"HELP after samples", "# TYPE f counter\nf 1\n# HELP f F.\n", "after its samples"},
		{"negative counter", "# TYPE f counter\nf -1\n", "negative counter"},
		{"invalid label name", "# TYPE f counter\nf{0bad=\"x\"} 1\n", "invalid label name"},
		{"duplicate label", "# TYPE f counter\nf{a=\"x\",a=\"y\"} 1\n", "duplicate label"},
		{"unquoted label value", "# TYPE f counter\nf{a=x} 1\n", "unquoted label value"},
		{"bad escape", "# TYPE f counter\nf{a=\"\\t\"} 1\n", "bad escape"},
		{"unparseable value", "# TYPE f counter\nf zero\n", "unparseable value"},
		{"bare histogram sample", histHeader + "h 1\n", "without _bucket/_sum/_count"},
		{"bucket without le", histHeader + "h_bucket{x=\"1\"} 1\n", "without le label"},
		{"le not last", histHeader + "h_bucket{le=\"1\",x=\"2\"} 1\n", "le must be the last label"},
		{"non-integral bucket", histHeader + "h_bucket{le=\"1\"} 1.5\n", "non-integral bucket count"},
		{"bucket after +Inf", histHeader + "h_bucket{le=\"+Inf\"} 1\nh_bucket{le=\"2\"} 1\n", "bucket after +Inf"},
		{"le not increasing", histHeader + "h_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n", "not strictly increasing"},
		{"not cumulative", histHeader + "h_bucket{le=\"1\"} 2\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n", "not cumulative"},
		{"missing +Inf", histHeader + "h_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n", "missing +Inf bucket"},
		{"count mismatch", histHeader + "h_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n", "_count 3 != +Inf bucket 2"},
		{"missing _sum", histHeader + "h_bucket{le=\"+Inf\"} 1\nh_count 1\n", "missing _sum"},
		{"missing _count", histHeader + "h_bucket{le=\"+Inf\"} 1\nh_sum 1\n", "missing _count"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := LintExposition(strings.NewReader(tc.content))
			if err == nil {
				t.Fatalf("lint passed, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestRegistryPanicsOnBadRegistration(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.Counter("dup_total", "D.")
	mustPanic("duplicate name", func() { r.Counter("dup_total", "D.") })
	mustPanic("invalid name", func() { r.Counter("0bad", "B.") })
	mustPanic("invalid label", func() { r.CounterVec("v_total", "V.", "0bad") })
	mustPanic("colon label", func() { r.CounterVec("w_total", "W.", "a:b") })
	mustPanic("bad bounds", func() { r.Histogram("h_seconds", "H.", []float64{2, 1}) })
}

// TestCounterVecConcurrent increments children from many goroutines
// while scraping — run under -race, this pins the locking discipline.
func TestCounterVecConcurrent(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("conc_total", "C.", "g")
	h := r.Histogram("conc_seconds", "H.", []float64{0.5})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				cv.With(strings.Repeat("g", g%2+1)).Inc()
				h.Observe(float64(i % 2))
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			r.WriteText(io.Discard)
		}
	}()
	wg.Wait()
	<-done
	var b strings.Builder
	r.WriteText(&b)
	if err := LintExposition(strings.NewReader(b.String())); err != nil {
		t.Fatal(err)
	}
	var total int64
	cv.Each(func(_ []string, n int64) { total += n })
	if total != 4000 {
		t.Fatalf("counter total = %d, want 4000", total)
	}
	if h.Count() != 4000 {
		t.Fatalf("histogram count = %d, want 4000", h.Count())
	}
}

// TestComputeMetricsExposition drives every compute-plane instrument and
// lints the resulting sidecar exposition.
func TestComputeMetricsExposition(t *testing.T) {
	m := NewComputeMetrics()
	m.ClassDone(false)
	m.ClassDone(true)
	m.CertifyObserved(3 * time.Millisecond)
	m.CertifyObserved(2 * time.Second)
	m.LeaseHeld(4, time.Now().Add(30*time.Second), true)
	m.LeaseRenewed(time.Now().Add(30 * time.Second))
	m.LeaseDone(false)
	m.LeaseDone(true)
	m.TrajectoryObserved(120, true, 40*time.Millisecond, 900, 12)
	m.TrajectoryObserved(1000, false, 2*time.Second, 100, 3)
	m.BindCacheStats(func() (int, int, int64, int64) { return 10, 4, 100, 7 })
	m.BindStoreStats(func() (int64, int64, int64, int64, int) { return 2048, 1, 5, 4096, 3 })

	var b strings.Builder
	m.Registry.WriteText(&b)
	text := b.String()
	if err := LintExposition(strings.NewReader(text)); err != nil {
		t.Fatalf("sidecar exposition fails lint: %v\n%s", err, text)
	}
	for _, want := range []string{
		"bncg_sweep_classes_total 2",
		"bncg_sweep_classes_cached_total 1",
		"bncg_certify_duration_seconds_count 2",
		"bncg_worker_ranges_total 1",
		"bncg_worker_steals_total 1",
		"bncg_worker_leases_lost_total 1",
		"bncg_lease_epoch 0", // cleared by LeaseDone
		"bncg_cache_entries{kind=\"verdict\"} 10",
		"bncg_cache_entries{kind=\"certificate\"} 4",
		"bncg_cache_hits_total 100",
		"bncg_cache_misses_total 7",
		"bncg_store_flushed_bytes_total 2048",
		"bncg_store_flush_failures_total 1",
		"bncg_store_rejected_writes_total 5",
		"bncg_store_disk_bytes 4096",
		"bncg_store_pending_records 3",
		"bncg_sim_trajectories_total{outcome=\"converged\"} 1",
		"bncg_sim_trajectories_total{outcome=\"maxsteps\"} 1",
		"bncg_sim_trajectory_steps_count 2",
		"bncg_incdist_repairs_total 1000",
		"bncg_incdist_fallbacks_total 15",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	// Nil-safety: every recording method must be a no-op on nil.
	var nilM *ComputeMetrics
	nilM.ClassDone(true)
	nilM.CertifyObserved(time.Second)
	nilM.LeaseHeld(1, time.Time{}, false)
	nilM.LeaseRenewed(time.Time{})
	nilM.LeaseDone(false)
	nilM.TrajectoryObserved(1, true, time.Second, 1, 1)
	nilM.BindCacheStats(nil)
	nilM.BindStoreStats(nil)
}

// TestSidecar boots the sidecar on an ephemeral port and scrapes both
// /metrics (linted) and /debug/pprof.
func TestSidecar(t *testing.T) {
	m := NewComputeMetrics()
	m.ClassDone(false)
	s, err := StartSidecar("127.0.0.1:0", m.Registry, true)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get("http://" + s.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp, string(body)
	}

	resp, body := get("/metrics")
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("Content-Type = %q", ct)
	}
	if err := LintExposition(strings.NewReader(body)); err != nil {
		t.Fatalf("sidecar /metrics fails lint: %v", err)
	}
	if !strings.Contains(body, "bncg_sweep_classes_total 1") {
		t.Fatalf("scrape missing counter:\n%s", body)
	}

	resp, body = get("/debug/pprof/cmdline")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof status = %d", resp.StatusCode)
	}
	if body == "" {
		t.Fatal("pprof cmdline empty")
	}

	// Without -pprof the sidecar must not expose the profiler.
	s2, err := StartSidecar("127.0.0.1:0", NewRegistry(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	resp2, err := http.Get("http://" + s2.Addr() + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof without -pprof: status = %d, want 404", resp2.StatusCode)
	}
}
