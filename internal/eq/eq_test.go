package eq

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/construct"
	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/move"
)

func mustGame(t *testing.T, n int, alpha game.Alpha) game.Game {
	t.Helper()
	gm, err := game.NewGame(n, alpha)
	if err != nil {
		t.Fatal(err)
	}
	return gm
}

// The star is an equilibrium for every considered solution concept when
// α >= 1 (footnote 6 of the paper).
func TestStarStableForAllConcepts(t *testing.T) {
	for _, alpha := range []game.Alpha{game.AFrac(3, 2), game.A(2), game.A(10)} {
		for n := 3; n <= 6; n++ {
			gm := mustGame(t, n, alpha)
			g := game.Star(n)
			for _, c := range Concepts() {
				if r := Check(gm, g, c); !r.Stable {
					t.Fatalf("star n=%d α=%s unstable for %s: %v", n, alpha, c, r.Witness)
				}
			}
		}
	}
}

// For α < 1 the clique is the only BSE (Proposition 3.16); in particular it
// is stable for every concept.
func TestCliqueStableBelowOne(t *testing.T) {
	for n := 3; n <= 5; n++ {
		gm := mustGame(t, n, game.AFrac(1, 2))
		g := game.Clique(n)
		for _, c := range Concepts() {
			if r := Check(gm, g, c); !r.Stable {
				t.Fatalf("clique n=%d unstable for %s: %v", n, c, r.Witness)
			}
		}
	}
}

// For α < 1 no other connected graph on n <= 5 nodes is in BSE
// (Proposition 3.16: the clique is the only one).
func TestCliqueOnlyBSEBelowOne(t *testing.T) {
	n := 4
	gm := mustGame(t, n, game.AFrac(1, 2))
	stableCount := 0
	for g := range graph.All(n, graph.EnumOptions{ConnectedOnly: true, MaxEdges: -1}) {
		if CheckKBSE(gm, g, n).Stable {
			stableCount++
			if g.M() != n*(n-1)/2 {
				t.Fatalf("non-clique BSE at α=1/2: %s", g)
			}
		}
	}
	if stableCount != 1 {
		t.Fatalf("found %d labeled BSE graphs at α=1/2, want 1 (the clique)", stableCount)
	}
}

// For α = 1 exactly the diameter <= 2 graphs are in BSE (Prop 3.16).
func TestDiameterTwoBSEAtOne(t *testing.T) {
	n := 4
	gm := mustGame(t, n, game.A(1))
	for g := range graph.All(n, graph.EnumOptions{ConnectedOnly: true, MaxEdges: -1}) {
		got := CheckKBSE(gm, g, n).Stable
		want := g.Diameter() <= 2
		if got != want {
			t.Fatalf("α=1 BSE=%v but diameter=%d for %s", got, g.Diameter(), g)
		}
	}
}

func TestCycleREWitness(t *testing.T) {
	// C4 at α=3: removing an edge saves 3 and costs only +2 distance.
	gm := mustGame(t, 4, game.A(3))
	r := Check(gm, construct.Cycle(4), RE)
	if r.Stable {
		t.Fatal("C4 at α=3 reported RE-stable")
	}
	if _, ok := r.Witness.(move.Remove); !ok {
		t.Fatalf("witness %v is not a removal", r.Witness)
	}
}

func TestPathBAEWitness(t *testing.T) {
	// P4 at α=1/2: endpoints profit from closing the cycle.
	gm := mustGame(t, 4, game.AFrac(1, 2))
	r := Check(gm, construct.Path(4), BAE)
	if r.Stable {
		t.Fatal("P4 at α=1/2 reported BAE-stable")
	}
	if _, ok := r.Witness.(move.Add); !ok {
		t.Fatalf("witness %v is not an addition", r.Witness)
	}
}

// Trees are always in RE: removing any edge disconnects the remover from
// part of the graph, which the lexicographic cost never prefers.
func TestTreesAlwaysRE(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(10)
		g := graph.RandomTree(n, rng)
		gm := mustGame(t, n, game.AFrac(int64(1+rng.Intn(20)), int64(1+rng.Intn(3))))
		if r := Check(gm, g, RE); !r.Stable {
			t.Fatalf("tree unstable for RE: %s witness %v", g, r.Witness)
		}
	}
}

// Proposition A.2's engine: single-removal stability coincides with
// multi-removal stability.
func TestREEquivalentToMultiRemove(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(5)
		m := rng.Intn(n*(n-1)/2 + 1)
		g, err := graph.RandomGraph(n, m, rng)
		if err != nil {
			t.Fatal(err)
		}
		gm := mustGame(t, n, game.AFrac(int64(1+rng.Intn(12)), int64(1+rng.Intn(2))))
		single := Check(gm, g, RE).Stable
		multi := CheckMultiRemove(gm, g).Stable
		if single != multi {
			t.Fatalf("RE=%v but multi-remove=%v for %s at α=%s", single, multi, g, gm.Alpha)
		}
	}
}

// The implication lattice of Figure 1a, tested as set inclusions of stable
// states on random graphs: BSE ⊆ 3-BSE ⊆ 2-BSE ⊆ BGE ⊆ PS ⊆ {RE, BAE},
// BGE ⊆ BSwE, BNE ⊆ BGE ∩ BAE, 1-BSE = RE.
func TestImplicationLattice(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(3) // n in 3..5 keeps the BSE check fast
		m := rng.Intn(n*(n-1)/2 + 1)
		g, err := graph.RandomGraph(n, m, rng)
		if err != nil {
			t.Fatal(err)
		}
		gm := mustGame(t, n, game.AFrac(int64(1+rng.Intn(16)), int64(1+rng.Intn(3))))

		st := make(map[Concept]bool)
		for _, c := range Concepts() {
			st[c] = Check(gm, g, c).Stable
		}
		implications := []struct {
			from, to Concept
		}{
			{BSE, ThreeBSE}, {ThreeBSE, TwoBSE}, {TwoBSE, BGE},
			{BGE, PS}, {BGE, BSwE}, {PS, RE}, {PS, BAE},
			{BNE, BGE}, {BNE, BAE}, {BNE, RE},
		}
		for _, imp := range implications {
			if st[imp.from] && !st[imp.to] {
				t.Fatalf("%s-stable but not %s-stable: %s at α=%s", imp.from, imp.to, g, gm.Alpha)
			}
		}
		// Definitional identities.
		if st[PS] != (st[RE] && st[BAE]) {
			t.Fatalf("PS != RE ∧ BAE on %s", g)
		}
		if st[BGE] != (st[PS] && st[BSwE]) {
			t.Fatalf("BGE != PS ∧ BSwE on %s", g)
		}
		// 1-BSE coincides with RE (Prop A.2).
		if CheckKBSE(gm, g, 1).Stable != st[RE] {
			t.Fatalf("1-BSE != RE on %s", g)
		}
	}
}

// Every unstable verdict must come with a genuinely improving witness.
func TestWitnessesAreImproving(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(3)
		m := rng.Intn(n*(n-1)/2 + 1)
		g, err := graph.RandomGraph(n, m, rng)
		if err != nil {
			t.Fatal(err)
		}
		gm := mustGame(t, n, game.AFrac(int64(1+rng.Intn(10)), 2))
		for _, c := range Concepts() {
			r := Check(gm, g, c)
			if r.Stable {
				continue
			}
			if r.Witness == nil {
				t.Fatalf("unstable %s verdict without witness on %s", c, g)
			}
			if !Improving(gm, g, r.Witness) {
				t.Fatalf("%s witness %v is not improving on %s at α=%s", c, r.Witness, g, gm.Alpha)
			}
		}
	}
}

// Proposition 3.7: on trees, BGE and 2-BSE coincide.
func TestTreeBGEEquals2BSE(t *testing.T) {
	alphas := []game.Alpha{game.AFrac(1, 2), game.AFrac(3, 2), game.A(3), game.A(8)}
	for n := 3; n <= 7; n++ {
		for g := range graph.AllFreeTrees(n) {
			for _, alpha := range alphas {
				gm := mustGame(t, n, alpha)
				bge := Check(gm, g, BGE).Stable
				twoBSE := CheckKBSE(gm, g, 2).Stable
				if bge != twoBSE {
					t.Fatalf("tree %s at α=%s: BGE=%v, 2-BSE=%v", g, alpha, bge, twoBSE)
				}
			}
		}
	}
}

// Lemma 2.4 cross-validation: the analytic BSE window for cycles agrees
// with the exact BSE checker at the sizes where the exact check runs.
func TestCycleBSEWindowMatchesExact(t *testing.T) {
	cases := []struct {
		n     int
		alpha game.Alpha
		want  bool
	}{
		{n: 4, alpha: game.AFrac(3, 2), want: true},  // window (1, 2)
		{n: 4, alpha: game.AFrac(5, 2), want: false}, // above window
		{n: 4, alpha: game.AFrac(1, 2), want: false}, // below window
		{n: 5, alpha: game.A(4), want: true},         // window (2, 6)
		{n: 5, alpha: game.A(7), want: false},        // above
		{n: 6, alpha: game.A(5), want: true},         // window (4, 6)
		{n: 6, alpha: game.A(3), want: false},        // below
	}
	for _, tt := range cases {
		gm := mustGame(t, tt.n, tt.alpha)
		g := construct.Cycle(tt.n)
		window := CycleBSEWindow(tt.n, tt.alpha)
		if window != tt.want {
			t.Fatalf("CycleBSEWindow(%d, %s) = %v, want %v", tt.n, tt.alpha, window, tt.want)
		}
		exact := CheckKBSE(gm, g, tt.n).Stable
		if window && !exact {
			t.Fatalf("C%d at α=%s: window certifies BSE but exact check finds %v",
				tt.n, tt.alpha, CheckKBSE(gm, g, tt.n).Witness)
		}
	}
}

// Proposition 3.16: a path of 4 nodes is in BSE for α = 100.
func TestPath4BSEAtHighAlpha(t *testing.T) {
	gm := mustGame(t, 4, game.A(100))
	if r := CheckKBSE(gm, construct.Path(4), 4); !r.Stable {
		t.Fatalf("P4 at α=100 not in BSE: %v", r.Witness)
	}
}

func TestConceptStrings(t *testing.T) {
	want := map[Concept]string{
		RE: "RE", BAE: "BAE", PS: "PS", BSwE: "BSwE", BGE: "BGE",
		BNE: "BNE", TwoBSE: "2-BSE", ThreeBSE: "3-BSE", BSE: "BSE",
	}
	for c, s := range want {
		if c.String() != s {
			t.Fatalf("String(%d) = %q, want %q", int(c), c.String(), s)
		}
	}
	if len(Concepts()) != len(want) {
		t.Fatal("Concepts() length mismatch")
	}
}

// extremeAlphas are prices at the edge of what game.ParseAlpha accepts:
// 2⁶²−1, (2⁶³−1)/3, 1/(2⁶³−1) and (2⁶³−2)/(2⁶³−1). Any int64 product of
// such a price with a cost overflows, so these are the cells where the
// exact comparisons must be exact in 128 bits.
func extremeAlphas() []game.Alpha {
	const max = 1<<63 - 1
	return []game.Alpha{game.A(1<<62 - 1), game.AFrac(max, 3), game.AFrac(1, max), game.AFrac(max-1, max)}
}

// TestCheckMatchesCertifyAtExtremeAlpha: on P5, the star and K5, at every
// extreme price and with and without price multipliers, Check must not
// panic and must agree with the certificate. P5 at 2⁶²−1 is stable for
// every concept: an added edge costs its buyers ~4.6·10¹⁸. One variant puts
// both multiplier terms at Variant.Validate's bound for n=5,
// ⌊(2⁶³−1)/25⌋: its scaled cost deltas are the largest the axis scans'
// unreduced breakpoints can hold, and the certificate is also probed at
// each of its own breakpoints.
func TestCheckMatchesCertifyAtExtremeAlpha(t *testing.T) {
	var variants []game.Variant
	bound := int64(math.MaxInt64 / 25)
	for _, s := range []string{"", "mul:0=3", fmt.Sprintf("mul:0=%d,mul:2=1/%d", bound, bound)} {
		v, err := game.ParseVariant(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := v.Validate(5); err != nil {
			t.Fatal(err)
		}
		variants = append(variants, v)
	}
	graphs := map[string]*graph.Graph{"P5": construct.Path(5), "star5": game.Star(5), "K5": game.Clique(5)}
	for name, g := range graphs {
		for _, variant := range variants {
			for _, c := range Concepts() {
				cert := Certify(game.Game{N: 5, Variant: variant}, g, c)
				for _, alpha := range append(extremeAlphas(), cert.Breakpoints()...) {
					gm := mustGame(t, 5, alpha)
					gm.Variant = variant
					r := Check(gm, g, c)
					if cert.Contains(alpha) != r.Stable {
						t.Errorf("%s variant=%s α=%s %s: Check stable=%v (witness %v), certificate %s",
							name, variant, alpha, c, r.Stable, r.Witness, cert)
					}
					if name == "P5" && alpha == game.A(1<<62-1) && !r.Stable {
						t.Errorf("P5 variant=%s α=%s %s: unstable with witness %v", variant, alpha, c, r.Witness)
					}
				}
			}
		}
	}
}
