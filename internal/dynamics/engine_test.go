package dynamics

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/eq"
	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/move"
)

// testVariants covers every axis the engine special-cases: the default
// game, MAX distances, heterogeneous prices, and unilateral consent.
func testVariants(t *testing.T, n int) []game.Variant {
	t.Helper()
	hetero := game.Variant{Prices: []game.AgentPrice{{Agent: 0, Mul: game.AFrac(3, 2)}, {Agent: n - 1, Mul: game.AFrac(1, 2)}}}
	variants := []game.Variant{
		{},
		{Dist: game.DistMax},
		hetero,
		{Consent: game.ConsentUnilateral},
	}
	for _, v := range variants {
		if err := v.Validate(n); err != nil {
			t.Fatal(err)
		}
	}
	return variants
}

// TestEngineMatchesEvaluator differentially pins the incremental probe
// against eq's full-recompute ImprovingBound on every candidate of random
// states across all variant axes, and checks probes leave no trace. The
// last trial runs at n = 70, past the single-word BFS kernel, so Add
// queries and probe repairs are also checked on longer rows.
func TestEngineMatchesEvaluator(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ev := eq.NewEvaluator()
	for trial := 0; trial < 13; trial++ {
		n := 70
		if trial < 12 {
			n = 5 + rng.Intn(4)
		}
		for _, variant := range testVariants(t, n) {
			gm, err := game.NewGame(n, game.AFrac(int64(1+rng.Intn(8)), 2))
			if err != nil {
				t.Fatal(err)
			}
			gm.Variant = variant
			g, err := graph.RandomConnectedGraph(n, n+rng.Intn(n), rng)
			if err != nil {
				t.Fatal(err)
			}
			snapshot := g.Clone()
			opts := Options{Kinds: []Kind{RemoveKind, AddKind, SwapKind}}
			eng := newEngine(gm, g, opts)
			ev.Bind(gm, g)
			for _, m := range collectMoves(g, opts) {
				var c candidate
				switch mv := m.(type) {
				case move.Remove:
					c = candidate{kind: RemoveKind, u: mv.U, v: mv.V}
				case move.Add:
					c = candidate{kind: AddKind, u: mv.U, v: mv.V}
				case move.Swap:
					c = candidate{kind: SwapKind, u: mv.U, v: mv.Old, w: mv.New}
				}
				got := eng.probe(c)
				want := ev.ImprovingBound(m)
				if got != want {
					t.Fatalf("variant %q α=%s: engine says %v, evaluator says %v for %v on %s",
						variant, gm.Alpha, got, want, m, graph.Encode(g))
				}
				// The breakpoint path must agree with the boolean path.
				if _, ok := eng.probeMargin(c); ok != want {
					t.Fatalf("variant %q α=%s: probeMargin says %v, evaluator says %v for %v",
						variant, gm.Alpha, ok, want, m)
				}
			}
			if !g.Equal(snapshot) {
				t.Fatalf("probing mutated the graph: %s -> %s", graph.Encode(snapshot), graph.Encode(g))
			}
		}
	}
}

// TestSchedulersReachEquilibria: every scheduler's fixed point passes the
// exact stability checker for its move set. Bilateral-consent variants
// only: dynamics moves always require all of move.Actors() to improve
// (exactly like Evaluator.ImprovingBound), while the unilateral PS concept
// scans buyer-only additions — its equilibria are a different fixed-point
// set, pinned instead by TestEngineMatchesEvaluator.
func TestSchedulersReachEquilibria(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, sched := range []Scheduler{SchedulerUniform, SchedulerRoundRobin, SchedulerBreakpoint} {
		for trial := 0; trial < 4; trial++ {
			n := 6 + rng.Intn(3)
			for _, variant := range testVariants(t, n) {
				if variant.Consent == game.ConsentUnilateral {
					continue
				}
				gm, err := game.NewGame(n, game.AFrac(int64(1+rng.Intn(8)), 2))
				if err != nil {
					t.Fatal(err)
				}
				gm.Variant = variant
				g, err := graph.RandomConnectedGraph(n, n+rng.Intn(n), rng)
				if err != nil {
					t.Fatal(err)
				}
				tr, err := Run(context.Background(), gm, g, Options{
					Kinds:     []Kind{RemoveKind, AddKind},
					Scheduler: sched,
					Rng:       rng,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !tr.Converged {
					t.Fatalf("scheduler %v variant %q did not converge", sched, variant)
				}
				if r := eq.Check(gm, g, eq.PS); !r.Stable {
					t.Fatalf("scheduler %v variant %q α=%s: fixed point fails PS check: %v",
						sched, variant, gm.Alpha, r.Witness)
				}
			}
		}
	}
}

// TestFullRecomputeOracleAgrees: the incremental engine and the evaluator
// oracle converge from the same starts to states the exact checker accepts,
// with histories of exact-equilibrium length bounds respected.
func TestFullRecomputeOracleAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 6; trial++ {
		n := 6 + rng.Intn(3)
		gm, _ := game.NewGame(n, game.AFrac(int64(1+rng.Intn(8)), 2))
		start, err := graph.RandomConnectedGraph(n, n+rng.Intn(n), rng)
		if err != nil {
			t.Fatal(err)
		}
		kinds := []Kind{RemoveKind, AddKind, SwapKind}
		gInc := start.Clone()
		trInc, err := Run(context.Background(), gm, gInc, Options{Kinds: kinds, Rng: rand.New(rand.NewSource(int64(trial)))})
		if err != nil {
			t.Fatal(err)
		}
		gOrc := start.Clone()
		trOrc, err := Run(context.Background(), gm, gOrc, Options{Kinds: kinds, Rng: rand.New(rand.NewSource(int64(trial))), FullRecompute: true})
		if err != nil {
			t.Fatal(err)
		}
		if !trInc.Converged || !trOrc.Converged {
			t.Fatalf("convergence mismatch: inc=%v oracle=%v", trInc.Converged, trOrc.Converged)
		}
		for name, g := range map[string]*graph.Graph{"incremental": gInc, "oracle": gOrc} {
			if r := eq.Check(gm, g, eq.BGE); !r.Stable {
				t.Fatalf("%s fixed point fails BGE check: %v", name, r.Witness)
			}
		}
	}
}

// TestScanZeroAllocs pins the allocation fix: a full candidate scan on a
// converged state — the steady-state cost of every convergence check —
// allocates nothing, for every scheduler.
func TestScanZeroAllocs(t *testing.T) {
	gm, _ := game.NewGame(16, game.A(2))
	g := game.Star(16)
	rng := rand.New(rand.NewSource(1))
	for _, sched := range []Scheduler{SchedulerUniform, SchedulerRoundRobin, SchedulerBreakpoint} {
		eng := newEngine(gm, g, Options{Kinds: []Kind{RemoveKind, AddKind, SwapKind}, Scheduler: sched})
		if _, ok := eng.find(rng); ok {
			t.Fatal("star is not a fixed point?")
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, ok := eng.find(rng); ok {
				t.Fatal("star is not a fixed point?")
			}
		})
		if allocs != 0 {
			t.Fatalf("scheduler %v: %v allocs per converged scan, want 0", sched, allocs)
		}
	}
}

// TestHistoryPreallocated: Run does not grow the history one append at a
// time — a short run's history capacity arrives in one allocation.
func TestHistoryPreallocated(t *testing.T) {
	gm, _ := game.NewGame(8, game.A(3))
	rng := rand.New(rand.NewSource(21))
	g, err := graph.RandomConnectedGraph(8, 14, rng)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Run(context.Background(), gm, g, Options{Kinds: []Kind{RemoveKind, AddKind}, Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	if cap(tr.History) < 640 { // min(10·n², 1024) for n=8
		t.Fatalf("history capacity %d: not preallocated", cap(tr.History))
	}
}

// TestTraceKernelStats: Run reports its distance kernel's repair/fallback
// counters: rows repaired by committed moves and by Remove/Swap probes (an
// Add probe reads two rows and repairs nothing). The FullRecompute oracle
// has no kernel.
func TestTraceKernelStats(t *testing.T) {
	gm, _ := game.NewGame(20, game.A(2))
	start, err := graph.RandomConnectedGraph(20, 30, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Kinds: []Kind{RemoveKind, AddKind}, Rng: rand.New(rand.NewSource(5))}
	tr, err := Run(context.Background(), gm, start.Clone(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Kernel.Repairs == 0 {
		t.Fatalf("kernel stats missing from the trace: %+v", tr.Kernel)
	}
	opts.FullRecompute = true
	opts.Rng = rand.New(rand.NewSource(5))
	if tr, err = Run(context.Background(), gm, start.Clone(), opts); err != nil {
		t.Fatal(err)
	}
	if tr.Kernel != (graph.IncStats{}) {
		t.Fatalf("FullRecompute trace reports kernel stats %+v", tr.Kernel)
	}
}
