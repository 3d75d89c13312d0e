package eq

import (
	"testing"

	"repro/internal/game"
	"repro/internal/graph"
)

// allocGraph returns the n=8 gadget the allocation-regression tests run
// on: the cycle C8, whose scans explore the full move space of every
// concept.
func allocGraph() *graph.Graph {
	return graph.MustFromEdges(8, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4},
		{U: 4, V: 5}, {U: 5, V: 6}, {U: 6, V: 7}, {U: 7, V: 0},
	})
}

// TestEvaluatorZeroAllocsPerCheck is the allocation-regression gate of the
// bitset kernel: after warmup, a bound Evaluator must perform stability
// checks at sweep sizes (n=8 here) without a single heap allocation. Only
// the cold unstable path may allocate — it boxes the witness move — so the
// pinned checks run on (concept, α) cells where the state is stable and
// the scan therefore explores every candidate move.
func TestEvaluatorZeroAllocsPerCheck(t *testing.T) {
	g := allocGraph()
	ev := NewEvaluator()
	// C8 at α=5: stable for every concept through 2-BSE (Lemma 2.4
	// territory: cycles are stable at high α). Verify the premise first so
	// the test fails loudly if the gadget drifts.
	gm, err := game.NewGame(8, game.A(5))
	if err != nil {
		t.Fatal(err)
	}
	concepts := []Concept{RE, BAE, PS, BSwE, BGE, BNE, TwoBSE}
	for _, c := range concepts {
		if res := ev.Check(gm, g, c); !res.Stable {
			t.Fatalf("premise broken: C8 at α=5 unstable for %s (witness %v)", c, res.Witness)
		}
	}
	// Warmup happened above (buffers grown to n=8); pin zero allocations
	// per full concept scan, including the per-task Bind.
	allocs := testing.AllocsPerRun(10, func() {
		ev.Bind(gm, g)
		for _, c := range concepts {
			if !ev.CheckBound(c).Stable {
				t.Fatal("unexpected instability")
			}
		}
	})
	if allocs != 0 {
		t.Errorf("evaluator allocates %v times per %d-concept check at n=8, want 0", allocs, len(concepts))
	}
}

// TestEvaluatorCertifyAllocs is the certificate edition of the gate above:
// a warmed, bound Evaluator certifies C8 for the seven concepts through
// 2-BSE with one allocation per certificate, the AlphaSet it returns. The
// axis scans' running interval and their union-containment exit must add
// none.
func TestEvaluatorCertifyAllocs(t *testing.T) {
	g := allocGraph()
	ev := NewEvaluator()
	gm, err := game.NewGame(8, game.A(5))
	if err != nil {
		t.Fatal(err)
	}
	concepts := []Concept{RE, BAE, PS, BSwE, BGE, BNE, TwoBSE}
	ev.Bind(gm, g)
	for _, c := range concepts {
		if set := ev.CertifyBound(c); !set.Contains(game.A(5)) {
			t.Fatalf("premise broken: C8 certificate for %s is %s, want it to hold α=5", c, set)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		ev.Bind(gm, g)
		for _, c := range concepts {
			ev.CertifyBound(c)
		}
	})
	if want := float64(len(concepts)); allocs != want {
		t.Errorf("evaluator allocates %v times per %d-concept certification at n=8, want %v", allocs, len(concepts), want)
	}
}

// TestEvaluatorRhoZeroAllocs pins the allocation-free social-cost path the
// PoA reductions use, and its bit-identity with Game.Rho.
func TestEvaluatorRhoZeroAllocs(t *testing.T) {
	g := allocGraph()
	ev := NewEvaluator()
	gm, err := game.NewGame(8, game.AFrac(5, 2))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ev.Rho(gm, g), gm.Rho(g); got != want {
		t.Fatalf("Evaluator.Rho = %v, Game.Rho = %v", got, want)
	}
	ev.Rho(gm, g) // warm the scratch
	if allocs := testing.AllocsPerRun(10, func() {
		ev.Rho(gm, g)
	}); allocs != 0 {
		t.Errorf("Evaluator.Rho allocates %v times per call, want 0", allocs)
	}
}

// TestEvaluatorMatchesCheckAllConcepts is the differential of the one
// deviation enumeration: for every connected class up to n=5, the default
// model and every test variant, and a mixed α grid, the evaluator and the
// package-level Check must agree with referenceCheck — an independent
// move-by-move enumeration — on stability AND on the witness move.
func TestEvaluatorMatchesCheckAllConcepts(t *testing.T) {
	alphas := []game.Alpha{game.AFrac(1, 2), game.A(1), game.A(3)}
	variants := append([]game.Variant{{}}, testVariants(t)...)
	ev := NewEvaluator()
	witness := func(r Result) string {
		if r.Witness == nil {
			return ""
		}
		return r.Witness.String()
	}
	for n := 2; n <= 5; n++ {
		for g := range graph.All(n, graph.EnumOptions{ConnectedOnly: true, UpToIso: true, MaxEdges: -1}) {
			for _, variant := range variants {
				for _, alpha := range alphas {
					gm := game.Game{N: n, Alpha: alpha, Variant: variant}
					for _, c := range Concepts() {
						want := referenceCheck(gm, g, c)
						for name, got := range map[string]Result{
							"evaluator": ev.Check(gm, g.Clone(), c),
							"check":     Check(gm, g, c),
						} {
							if got.Stable != want.Stable || witness(got) != witness(want) {
								t.Errorf("n=%d variant=%s α=%s %s on %s: %s stable=%v witness %q, reference stable=%v witness %q",
									n, variant, alpha, c, g, name, got.Stable, witness(got), want.Stable, witness(want))
							}
						}
					}
				}
			}
		}
	}
}
