package main

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"
)

// median returns the median of xs (the mean of the middle pair for an even
// count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quantile returns the nearest-rank q-quantile of sorted: the smallest
// sample with at least a share q of the samples at or below it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := rank(len(sorted), q) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// tailLevels are the percentiles a tail may be reported at, highest first.
var tailLevels = []float64{0.9999, 0.999, 0.99, 0.95, 0.9, 0.5}

// tailLevel returns the highest percentile of tailLevels that leaves at
// least ten of n samples beyond it, so a reported tail never rests on a
// handful of samples. It returns 0 when n is too small for any of them.
func tailLevel(n int) float64 {
	for _, q := range tailLevels {
		if beyond(n, q) >= 10 {
			return q
		}
	}
	return 0
}

// beyond counts the samples of n that lie strictly above the nearest-rank
// q-quantile.
func beyond(n int, q float64) int {
	return n - rank(n, q)
}

// rank is the 1-based nearest rank of the q-quantile of n samples. The
// epsilon keeps q·n from rounding up past an exact product such as
// 0.99·1000.
func rank(n int, q float64) int {
	return int(math.Ceil(q*float64(n) - 1e-9))
}

// latencySummary is a latency distribution as the report prints it.
type latencySummary struct {
	samples  int     // requests that were due, failed ones included
	p50, p99 float64 // ms; p99 is NaN when fewer than 10 samples lie beyond it
	tailQ    float64 // highest percentile with at least 10 samples beyond it
	tail     float64 // ms at tailQ
}

// summarize sorts latencies (ms); a failed or refused request counts as
// missing every latency limit, so it enters as +Inf.
func summarize(ms []float64) latencySummary {
	s := slices.Clone(ms)
	slices.Sort(s)
	out := latencySummary{samples: len(s), p50: quantile(s, 0.5), p99: math.NaN()}
	if beyond(len(s), 0.99) >= 10 {
		out.p99 = quantile(s, 0.99)
	}
	if out.tailQ = tailLevel(len(s)); out.tailQ > 0 {
		out.tail = quantile(s, out.tailQ)
	}
	return out
}

func (l latencySummary) String() string {
	if l.tailQ == 0 {
		return fmt.Sprintf("p50=%.4fms samples=%d (too few for a tail)", l.p50, l.samples)
	}
	return fmt.Sprintf("p50=%.4fms p99=%.4fms p%g=%.4fms samples=%d (%d beyond p%g)",
		l.p50, l.p99, 100*l.tailQ, l.tail, l.samples, beyond(l.samples, l.tailQ), 100*l.tailQ)
}

// errorShare is failed over attempted operations.
func errorShare(failed, attempted int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// openLoopResult is what an open-loop phase measured, per request.
type openLoopResult struct {
	latency []time.Duration // from the request's due time to its reply
	late    []time.Duration // how long after its due time the generator released it
}

// openLoop releases request i at start + i·interval whether or not earlier
// replies have arrived, and conns clients send the released requests in
// order. Latency is timed from the due time, not the send time, so a stall
// is charged to every request that was due during it. send gets the
// client's index and reports whether the request succeeded; a failed
// request's latency is +Inf.
func openLoop(n, conns int, interval time.Duration, send func(client, i int) bool) openLoopResult {
	res := openLoopResult{latency: make([]time.Duration, n), late: make([]time.Duration, n)}
	// Sized to every request, so the generator never waits for a client.
	released := make(chan int, n)
	start := time.Now()
	due := func(i int) time.Time { return start.Add(time.Duration(i) * interval) }
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range released {
				ok := send(c, i)
				res.latency[i] = time.Since(due(i))
				if !ok {
					res.latency[i] = time.Duration(math.MaxInt64)
				}
			}
		}(c)
	}
	for i := 0; i < n; i++ {
		if d := time.Until(due(i)); d > 0 {
			time.Sleep(d)
		}
		res.late[i] = time.Since(due(i))
		released <- i
	}
	close(released)
	wg.Wait()
	return res
}

// ms converts durations to milliseconds; time.Duration(math.MaxInt64)
// marks a failed request and becomes +Inf.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
		if d == time.Duration(math.MaxInt64) {
			out[i] = math.Inf(1)
		}
	}
	return out
}
