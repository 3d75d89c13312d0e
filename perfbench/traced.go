package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/dynamics"
	"repro/internal/eq"
	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/move"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/sweep"
)

// The traced runs replay each workload in this process, single-threaded,
// with a span around every call into a layer's public function. Each unit
// of a replay runs untraced and traced (see paired); the difference is the
// tracing overhead.

// conceptSpans maps each concept to its span name under prefix, built once
// so that naming a span allocates nothing.
func conceptSpans(prefix string) map[eq.Concept]string {
	out := map[eq.Concept]string{}
	for _, c := range eq.Concepts() {
		out[c] = prefix + c.String()
	}
	return out
}

var (
	certifySpan = conceptSpans("eq.Certify.")
	checkSpan   = conceptSpans("eq.Check.")
)

// ---- sweep-n6, sweep-n7 ----

// sweepState is one side of a paired sweep replay.
type sweepState struct {
	cache *sweep.Cache
	ev    *eq.Evaluator
	certs []eq.AlphaSet
}

// replay mirrors sweep.Run at one worker: enumerate the classes, then per
// class and concept look the certificate up, bind the class once, certify
// and store the certificate. Enumeration and each class are paired units.
// It returns the untraced wall and the traced side's certificates.
func (c critical) replay(tr *tracer) (time.Duration, []eq.AlphaSet, error) {
	gm, err := game.NewGame(c.n, game.A(1))
	if err != nil {
		return 0, nil, err
	}
	var graphs []*graph.Graph
	var keys []string
	untraced, err := paired(tr, 1, func(t *tracer, parent, _ int) error {
		sp := t.begin("graph.AllClasses", parent, noSpan)
		graphs, keys = nil, nil
		for g, cl := range graph.AllClasses(c.n, connectedClasses) {
			graphs = append(graphs, g)
			keys = append(keys, cl.Key)
		}
		t.end(sp)
		return nil
	})
	if err != nil {
		return 0, nil, err
	}
	var sides [2]sweepState
	for i := range sides {
		sides[i] = sweepState{sweep.NewCache(), eq.NewEvaluator(), make([]eq.AlphaSet, len(graphs)*len(c.concepts))}
	}
	classes, err := paired(tr, len(graphs), func(t *tracer, parent, gi int) error {
		s := &sides[0]
		if t != nil {
			s = &sides[1]
		}
		bound := false
		for ci, concept := range c.concepts {
			k := sweep.CertKey{Canon: keys[gi], Concept: concept}
			sp := t.begin("sweep.Cache.GetCert", parent, gi)
			set, ok := s.cache.GetCert(k)
			t.end(sp)
			if !ok {
				if !bound {
					sp = t.begin("eq.Bind", parent, gi)
					s.ev.Bind(gm, graphs[gi].Clone())
					t.end(sp)
					bound = true
				}
				sp = t.begin(certifySpan[concept], parent, gi)
				set = s.ev.CertifyBound(concept)
				t.end(sp)
				sp = t.begin("sweep.Cache.PutCert", parent, gi)
				s.cache.PutCert(k, set)
				t.end(sp)
			}
			s.certs[gi*len(c.concepts)+ci] = set
		}
		return nil
	})
	return untraced + classes, sides[1].certs, err
}

// traced reports the enumeration, per-concept certification and cache
// layers from the replay; sweep.Run at one worker, whose time beyond the
// untraced replay is the engine's own; and one `bncg critical` run at
// nproc workers for the parallel efficiency. The replay's certificates
// must equal the engine's.
func (c critical) traced(e *env) (*outcome, error) {
	o := newOutcome()
	tr := newTracer()
	untraced, certs, err := c.replay(tr)
	if err != nil {
		return nil, err
	}
	runSpan := tr.begin("sweep.Run", noSpan, noSpan)
	res, err := sweep.Run(e.ctx, sweep.Options{N: c.n, Alphas: []game.Alpha{game.A(1)}, Concepts: c.concepts,
		Workers: 1, Cache: sweep.NewCache()})
	tr.end(runSpan)
	if err != nil {
		return nil, err
	}
	var mismatch error
	if len(res.Certs) != len(certs) {
		mismatch = fmt.Errorf("replay made %d certificates, sweep.Run %d", len(certs), len(res.Certs))
	}
	for i := 0; mismatch == nil && i < len(certs); i++ {
		if !certs[i].Equal(res.Certs[i]) {
			mismatch = fmt.Errorf("certificate %d: replay %v, sweep.Run %v", i, certs[i], res.Certs[i])
		}
	}
	o.note("replay certificates against sweep.Run", mismatch)
	cli, err := runProgram(e, c.args(c.n, e.nproc)...)
	if err != nil {
		return nil, err
	}
	o.note("bncg critical", c.check(cli.out))

	stats := tr.byName()
	overhead := tr.reconcile(e, fmt.Sprintf("critical -n %d replay, 1 goroutine", c.n), untraced)
	runS := tr.spans[runSpan].dur()
	e.logf("engine: sweep.Run at 1 worker %.6f s; untraced replay %.6f s; engine beyond the layers %.6f s",
		runS.Seconds(), untraced.Seconds(), (runS - untraced).Seconds())
	e.logf("bncg critical at %d workers: %.6f s", e.nproc, cli.wall.Seconds())

	o.metrics["graph.enum.classes"] = float64(res.Graphs)
	o.metrics["graph.enum.s"] = stats["graph.AllClasses"].total.Seconds()
	for _, concept := range c.concepts {
		st := stats[certifySpan[concept]]
		o.metrics["eq.certify."+concept.String()+".calls"] = float64(st.calls)
		o.metrics["eq.certify."+concept.String()+".s"] = st.total.Seconds()
	}
	o.metrics["sweep.run.s"] = runS.Seconds()
	o.metrics["sweep.unattributed_s"] = (runS - untraced).Seconds()
	o.metrics["sweep.parallel_efficiency"] = runS.Seconds() / (float64(e.nproc) * cli.wall.Seconds())
	o.metrics["sweep.cache.get_us"] = stats["sweep.Cache.GetCert"].meanUS()
	o.metrics["bench.trace_overhead_share"] = overhead
	return o, tr.write(tracePath(e, fmt.Sprintf("sweep-n%d", c.n)))
}

// ---- serve-check ----

// tracedRequests is the length of the request stream the traced serve-check
// passes replay.
const tracedRequests = 20000

// serveState is one side of the paired /v1/check layer replay: a store
// booted as the daemon boots it, and the daemon's cache.
type serveState struct {
	st       *store.Store
	cache    *sweep.Cache
	ev       *eq.Evaluator
	puts     int
	certHits int
}

// bootServe opens the store in dir and warms a cache from it, as `bncg
// serve -store` does. The store flushes only when handle says so.
func bootServe(t *tracer, dir string) (*serveState, error) {
	boot := t.begin("bench.boot", noSpan, noSpan)
	defer t.end(boot)
	sp := t.begin("store.Open", boot, noSpan)
	st, err := store.Open(dir, store.Options{FlushEvery: math.MaxInt32})
	t.end(sp)
	if err != nil {
		return nil, err
	}
	s := &serveState{st: st, cache: sweep.NewCache(), ev: eq.NewEvaluator()}
	sp = t.begin("sweep.Cache.WarmStart", boot, noSpan)
	s.cache.WarmStart(st)
	t.end(sp)
	return s, nil
}

// handle mirrors the /v1/check handler for one request: decode,
// canonicalize, look the certificate up, and on a miss the verdict, then
// the point check, the cache insert and the store append, with a flush
// every 128 appends as the daemon's store does.
func (s *serveState) handle(t *tracer, parent, i int, r *checkReq) error {
	sp := t.begin("graph.Decode", parent, i)
	g, err := graph.Decode(string(r.body))
	t.end(sp)
	if err != nil {
		return err
	}
	gm, err := game.NewGame(g.N(), r.alpha)
	if err != nil {
		return err
	}
	sp = t.begin("graph.CanonicalKey", parent, i)
	canon := g.CanonicalKey()
	t.end(sp)
	sp = t.begin("sweep.Cache.GetCert", parent, i)
	_, ok := s.cache.GetCert(sweep.CertKey{Canon: canon, Concept: r.concept})
	t.end(sp)
	if ok {
		s.certHits++
		return nil
	}
	key := sweep.Key{Canon: canon, Num: r.alpha.Num(), Den: r.alpha.Den(), Concept: r.concept}
	sp = t.begin("sweep.Cache.Get", parent, i)
	_, ok = s.cache.Get(key)
	t.end(sp)
	if ok {
		return nil
	}
	sp = t.begin(checkSpan[r.concept], parent, i)
	res := s.ev.Check(gm, g.Clone(), r.concept)
	t.end(sp)
	sp = t.begin("sweep.Cache.Put", parent, i)
	s.cache.Put(key, res.Stable)
	t.end(sp)
	sp = t.begin("store.Put", parent, i)
	err = s.st.Put(store.Record{Canon: canon, Num: key.Num, Den: key.Den, Concept: uint8(r.concept), Stable: res.Stable})
	t.end(sp)
	if err != nil {
		return err
	}
	if s.puts++; s.puts%128 == 0 {
		sp = t.begin("store.Flush", parent, i)
		err = s.st.Flush()
		t.end(sp)
	}
	return err
}

// statusMetric names the server.status.* metric a reply counts under.
func statusMetric(x *exchange) string {
	switch {
	case x.err != nil:
		return "server.status.other"
	case x.status == 200, x.status == 400, x.status == 429, x.status == 503:
		return fmt.Sprintf("server.status.%d", x.status)
	}
	return "server.status.other"
}

// serveTraced runs three passes over the same seeded stream, each on its
// own copy of the fixture: (A) the layer replay, untraced and traced;
// (B) the real handler in process, Server.ServeHTTP, timed per request;
// (C) the real daemon over loopback on one connection, whose latency minus
// B's handler time is the network share, then a short open-loop phase for
// the generator's lateness.
func serveTraced(e *env) (*outcome, error) {
	o := newOutcome()
	fixture := filepath.Join(e.work, "fixture")
	if err := buildFixture(e, fixture); err != nil {
		return nil, err
	}
	copyOf := func(name string) (string, error) {
		dir := filepath.Join(e.work, name)
		return dir, copyDir(fixture, dir)
	}
	gen := newStreamGen(e.seed, hitShare)
	reqs, err := gen.batch(tracedRequests)
	if err != nil {
		return nil, err
	}
	tr := newTracer()

	// (A)
	var sides [2]*serveState
	for k, name := range []string{"a0", "a1"} {
		dir, err := copyOf(name)
		if err != nil {
			return nil, err
		}
		var t *tracer
		if k == 1 {
			t = tr
		}
		if sides[k], err = bootServe(t, dir); err != nil {
			return nil, err
		}
		defer sides[k].st.Close()
	}
	records := sides[1].st.Stats().Records
	untraced, err := paired(tr, len(reqs), func(t *tracer, parent, i int) error {
		if t == nil {
			return sides[0].handle(t, parent, i, reqs[i])
		}
		return sides[1].handle(t, parent, i, reqs[i])
	})
	if err != nil {
		return nil, err
	}
	stats := tr.byName()
	var layersBelow time.Duration // layer self time under the request units
	self := tr.selfTimes()
	for i, sp := range tr.spans {
		if sp.layer() != "bench" && tr.unitOf(i) != noSpan {
			layersBelow += self[i]
		}
	}

	// (B)
	dirB, err := copyOf("b")
	if err != nil {
		return nil, err
	}
	handler, allocs, err := serveInProcess(e, tr, dirB, reqs)
	if err != nil {
		return nil, err
	}

	// (C)
	xs := make([]*exchange, len(reqs))
	net := make([]float64, len(reqs))
	openReqs, err := gen.batch(2 * openRate)
	if err != nil {
		return nil, err
	}
	openXs := make([]*exchange, len(openReqs))
	var ol openLoopResult
	if _, err := lifetime(e, fixture, 0, func(_ *daemon, cs []*conn) error {
		for i, r := range reqs {
			t0 := time.Now()
			xs[i] = cs[0].do(r)
			net[i] = float64(time.Since(t0)-handler[i]) / float64(time.Microsecond)
		}
		ol = openLoop(len(openReqs), len(cs), time.Second/openRate, func(w, i int) bool {
			openXs[i] = cs[w].do(openReqs[i])
			return openXs[i].err == nil && openXs[i].status == http.StatusOK
		})
		return nil
	}); err != nil {
		return nil, err
	}
	xs = append(xs, openXs...)
	late := summarize(ms(ol.late))
	e.logf("generator lateness at %d req/s: %s", openRate, late)
	o.metrics["bench.gen_late_p99_ms"] = late.p99
	verifyAll(e, o, xs)
	for _, x := range xs {
		o.metrics[statusMetric(x)]++
	}

	var hit, miss stat
	for i, r := range reqs {
		if r.hit {
			hit.calls++
			hit.total += handler[i]
		} else {
			miss.calls++
			miss.total += handler[i]
		}
	}
	handlerTotal := hit.total + miss.total
	overhead := tr.reconcile(e, fmt.Sprintf("/v1/check layer replay, %d requests", len(reqs)), untraced)
	n := float64(len(reqs))
	e.logf("handler (in-process ServeHTTP): %.6f s total, %.3f us/request; layers below it (replay) %.3f us/request",
		handlerTotal.Seconds(), float64(handlerTotal)/n/1e3, float64(layersBelow)/n/1e3)
	e.logf("loopback (1 connection) minus handler: median %.3f us", median(net))

	o.metrics["graph.decode.us"] = stats["graph.Decode"].meanUS()
	o.metrics["graph.canonical.calls"] = float64(stats["graph.CanonicalKey"].calls)
	o.metrics["graph.canonical.us"] = stats["graph.CanonicalKey"].meanUS()
	for _, concept := range sevenConcepts {
		st := stats[checkSpan[concept]]
		o.metrics["eq.check."+concept.String()+".calls"] = float64(st.calls)
		o.metrics["eq.check."+concept.String()+".us"] = st.meanUS()
	}
	o.metrics["sweep.cache.get_us"] = stats["sweep.Cache.GetCert"].meanUS()
	o.metrics["sweep.cache.hit_share"] = float64(sides[1].certHits) / float64(stats["sweep.Cache.GetCert"].calls)
	o.metrics["sweep.warmstart_ms"] = float64(stats["sweep.Cache.WarmStart"].total) / float64(time.Millisecond)
	o.metrics["store.open_ms"] = float64(stats["store.Open"].total) / float64(time.Millisecond)
	o.metrics["store.replayed_records"] = float64(records)
	o.metrics["store.put_us"] = stats["store.Put"].meanUS()
	o.metrics["store.flushes"] = float64(stats["store.Flush"].calls)
	o.metrics["store.flush_ms"] = stats["store.Flush"].meanUS() / 1e3
	o.metrics["server.handler_us.hit"] = hit.meanUS()
	o.metrics["server.handler_us.miss"] = miss.meanUS()
	o.metrics["server.envelope_us"] = float64(handlerTotal-layersBelow) / n / float64(time.Microsecond)
	o.metrics["server.allocs_per_req"] = allocs
	o.metrics["server.net_us"] = median(net)
	o.metrics["bench.trace_overhead_share"] = overhead
	return o, tr.write(tracePath(e, "serve-check"))
}

// serveInProcess serves reqs through the daemon's handler, Server.ServeHTTP,
// booted on dir the way `bncg serve -store` boots, and returns each
// request's handler time and the mean heap allocations per request.
func serveInProcess(e *env, tr *tracer, dir string, reqs []*checkReq) ([]time.Duration, float64, error) {
	st, err := store.Open(dir, store.Options{FlushInterval: 2 * time.Second})
	if err != nil {
		return nil, 0, err
	}
	defer st.Close()
	cache := sweep.NewCache()
	cache.WarmStart(st)
	cache.Persist(st)
	defer cache.Persist(nil)
	srv := server.New(server.Config{Cache: cache, Store: st, Workers: e.nproc})
	defer srv.Close()

	hrs := make([]*http.Request, len(reqs))
	recs := make([]*httptest.ResponseRecorder, len(reqs))
	for i, r := range reqs {
		hrs[i] = httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body))
		recs[i] = httptest.NewRecorder()
	}
	handler := make([]time.Duration, len(reqs))
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := range reqs {
		sp := tr.begin("server.ServeHTTP", noSpan, i)
		srv.ServeHTTP(recs[i], hrs[i])
		tr.end(sp)
		handler[i] = tr.spans[sp].dur()
	}
	runtime.ReadMemStats(&m1)
	for i, rec := range recs {
		if rec.Code != http.StatusOK {
			return nil, 0, fmt.Errorf("in-process %s: status %d: %s", reqs[i].path, rec.Code, strings.TrimSpace(rec.Body.String()))
		}
	}
	return handler, float64(m1.Mallocs-m0.Mallocs) / float64(len(reqs)), nil
}

// ---- simulate-n200 ----

// simTrajectory is one trajectory as the replay reproduced it.
type simTrajectory struct {
	init    *graph.Graph // the initial state, before any move
	history []move.Move
	steps   int
	conv    bool
	edges   int
}

// simOptions are the workload's sim.Options at seed.
func (s simulate) options(seed int64, workers int) (sim.Options, error) {
	var alphas []game.Alpha
	for _, a := range strings.Split(s.alphas, ",") {
		alpha, err := game.ParseAlpha(a)
		if err != nil {
			return sim.Options{}, err
		}
		alphas = append(alphas, alpha)
	}
	return sim.Options{N: s.n, Alphas: alphas, Trajectories: s.trajectories, MaxSteps: s.maxSteps,
		Seed: uint64(max(seed, defaultSimSeed)), Workers: workers}, nil
}

// replay reproduces every trajectory of sim.Run from its documented seed
// derivation — sim.TrajectorySeed, then the initial family cycled over
// ER, tree, star, then dynamics.Run with PS moves on the same rng — one
// after another in this goroutine, each trajectory a paired unit. It
// returns the untraced wall and the traced side's trajectories.
func (s simulate) replay(e *env, tr *tracer, opts sim.Options) (time.Duration, []simTrajectory, error) {
	out := make([]simTrajectory, len(opts.Alphas)*opts.Trajectories)
	untraced, err := paired(tr, len(out), func(t *tracer, parent, idx int) error {
		ai, ti := idx/opts.Trajectories, idx%opts.Trajectories
		gm, err := game.NewGame(opts.N, opts.Alphas[ai])
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(int64(sim.TrajectorySeed(opts.Seed, ai, ti))))
		var g *graph.Graph
		switch ti % 3 {
		case 0:
			sp := t.begin("graph.RandomConnectedGNP", parent, idx)
			g, err = graph.RandomConnectedGNP(opts.N, 4/float64(opts.N), rng)
			t.end(sp)
		case 1:
			sp := t.begin("graph.RandomTree", parent, idx)
			g = graph.RandomTree(opts.N, rng)
			t.end(sp)
		default:
			sp := t.begin("graph.RandomStar", parent, idx)
			g = graph.RandomStar(opts.N, rng)
			t.end(sp)
		}
		if err != nil {
			return err
		}
		init := g.Clone()
		sp := t.begin("dynamics.Run", parent, idx)
		tr, err := dynamics.Run(e.ctx, gm, g, dynamics.Options{Kinds: []dynamics.Kind{dynamics.RemoveKind, dynamics.AddKind},
			MaxSteps: opts.MaxSteps, Rng: rng})
		t.end(sp)
		if t != nil {
			out[idx] = simTrajectory{init: init, history: tr.History, steps: tr.Steps, conv: tr.Converged, edges: g.M()}
		}
		return err
	})
	return untraced, out, err
}

// simTraced runs sim.Run at nproc workers with a timestamp per delivered
// trajectory, replays every trajectory untraced and traced (each must
// match sim.Run's), then replays each trajectory's applied moves on a
// fresh graph.IncDist and reads its repair counters.
func simTraced(e *env) (*outcome, error) {
	s := simulateN200
	o := newOutcome()
	opts, err := s.options(e.seed, e.nproc)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	runSpan := tr.begin("sim.Run", noSpan, noSpan)
	opts.OnTrajectory = func(t sim.Trajectory) { tr.end(tr.begin("sim.OnTrajectory", runSpan, t.Index)) }
	res, err := sim.Run(e.ctx, opts)
	tr.end(runSpan)
	if err != nil {
		return nil, err
	}
	opts.OnTrajectory = nil
	o.note("sim.Run report", s.check(e.seed, []byte(res.Report())))

	untraced, trajs, err := s.replay(e, tr, opts)
	if err != nil {
		return nil, err
	}
	steps, converged := 0, 0
	for i, t := range trajs {
		var mismatch error
		if i >= len(res.Items) || res.Items[i].Steps != t.steps || res.Items[i].Converged != t.conv || res.Items[i].Edges != t.edges {
			mismatch = fmt.Errorf("trajectory %d: replay steps=%d converged=%v edges=%d differ from sim.Run", i, t.steps, t.conv, t.edges)
		}
		o.note("replayed trajectory", mismatch)
		steps += t.steps
		if t.conv {
			converged++
		}
	}

	probe := tr.begin("bench.incdist", noSpan, noSpan)
	var repairs, fallbacks uint64
	for i, t := range trajs {
		sp := tr.begin("graph.NewIncDist", probe, i)
		d := graph.NewIncDist(t.init.Clone())
		tr.end(sp)
		for _, m := range t.history {
			sp := tr.begin("graph.IncDist.toggle", probe, i)
			switch m := m.(type) {
			case move.Remove:
				d.RemoveEdge(m.U, m.V)
			case move.Add:
				d.AddEdge(m.U, m.V)
			default:
				tr.end(sp)
				return nil, fmt.Errorf("trajectory %d: unexpected move %v", i, m)
			}
			tr.end(sp)
		}
		st := d.Stats()
		repairs += st.Repairs
		fallbacks += st.Fallbacks
		o.note("IncDist replay against BFS", checkIncDist(d))
	}
	tr.end(probe)

	stats := tr.byName()
	overhead := tr.reconcile(e, fmt.Sprintf("simulate replay, %d trajectories, 1 goroutine", len(trajs)), untraced)
	var trajMS []float64
	var trajTotal time.Duration
	for _, sp := range tr.spans {
		if sp.name == unitSpan {
			trajMS = append(trajMS, float64(sp.dur())/float64(time.Millisecond))
			trajTotal += sp.dur()
		}
	}
	runWall := tr.spans[runSpan].dur()
	var deliveries []string
	for _, sp := range tr.spans {
		if sp.name == "sim.OnTrajectory" {
			deliveries = append(deliveries, fmt.Sprintf("%.0f", float64(sp.start-tr.spans[runSpan].start)/float64(time.Millisecond)))
		}
	}
	e.logf("sim.Run at %d workers: %.6f s; deliveries at ms %s", e.nproc, runWall.Seconds(), strings.Join(deliveries, " "))

	o.metrics["sim.trajectory_ms.p50"] = median(trajMS)
	o.metrics["sim.trajectory_ms.max"] = slices.Max(trajMS)
	o.metrics["sim.imbalance"] = float64(e.nproc) * runWall.Seconds() / trajTotal.Seconds()
	o.metrics["dynamics.steps"] = float64(steps)
	o.metrics["dynamics.step_us"] = stats["dynamics.Run"].total.Seconds() * 1e6 / float64(max(steps, 1))
	o.metrics["dynamics.converged_share"] = float64(converged) / float64(len(trajs))
	o.metrics["graph.incdist.build_ms"] = stats["graph.NewIncDist"].meanUS() / 1e3
	o.metrics["graph.incdist.toggle_us"] = stats["graph.IncDist.toggle"].meanUS()
	o.metrics["graph.incdist.repairs"] = float64(repairs)
	o.metrics["graph.incdist.fallbacks"] = float64(fallbacks)
	if repairs+fallbacks > 0 {
		o.metrics["graph.incdist.fallback_share"] = float64(fallbacks) / float64(repairs+fallbacks)
	}
	o.metrics["bench.trace_overhead_share"] = overhead
	return o, tr.write(tracePath(e, "simulate-n200"))
}

// checkIncDist compares every distance the kernel holds with a fresh BFS
// of the graph it tracks.
func checkIncDist(d *graph.IncDist) error {
	g := d.Graph()
	for src := 0; src < g.N(); src++ {
		for v, want := range g.BFS(src) {
			if got := d.Dist(src, v); got != want {
				return fmt.Errorf("IncDist dist(%d,%d)=%d, BFS %d", src, v, got, want)
			}
		}
	}
	return nil
}
