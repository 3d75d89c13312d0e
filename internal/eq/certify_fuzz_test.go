package eq

import (
	"testing"

	"repro/internal/game"
	"repro/internal/graph"
)

// FuzzCertificateAgreement is the certificate engine's differential fuzz
// target: for arbitrary decoded graphs and every solution concept, the
// parametric certificate must agree with the per-α exact checker on a
// dense rational α-grid — a fixed lattice plus the certificate's own
// breakpoints, the midpoints between them, and one point past the last
// (exactly where a wrong open/closed endpoint or a missed deviation
// breakpoint is visible). The seed corpus mirrors the graph-decode fuzz
// corpus so the same inputs exercise decoding and certification. The
// fuzzed price num/den is probed too, so the int64 extremes are in reach.
func FuzzCertificateAgreement(f *testing.F) {
	f.Add("n 3\n0 1\n1 2\n", uint8(0), int64(1), int64(1))
	f.Add("n 4\n0 1\n1 2\n2 3\n3 0\n", uint8(1), int64(1), int64(1))
	f.Add("n 5\n0 1\n0 2\n0 3\n0 4\n", uint8(3), int64(1), int64(1))
	f.Add("n 5\n0 1\n1 2\n2 3\n3 4\n", uint8(7), int64(1), int64(1))
	f.Add("n 6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n", uint8(9), int64(1), int64(1))
	for i, input := range extremeSeedGraphs {
		for j, a := range extremeAlphas() {
			f.Add(input, uint8(i+j), a.Num(), a.Den())
		}
	}
	f.Fuzz(func(t *testing.T, input string, pick uint8, num, den int64) {
		g, err := graph.Decode(input)
		if err != nil || g.N() < 2 || g.N() > 6 {
			return
		}
		n := g.N()
		concepts := Concepts()
		if n == 6 {
			// The coalition searches are exponential; at the fuzz budget keep
			// n=6 inputs on the polynomial concepts.
			concepts = []Concept{RE, BAE, PS, BSwE, BGE}
		}
		concept := concepts[int(pick)%len(concepts)]
		gm, err := game.NewGame(n, game.A(1))
		if err != nil {
			t.Fatal(err)
		}
		ev := NewEvaluator()
		set := ev.Certify(gm, g.Clone(), concept)

		probe := func(alpha game.Alpha) {
			gmA, err := game.NewGame(n, alpha)
			if err != nil {
				t.Fatal(err)
			}
			got := set.Contains(alpha)
			want := Check(gmA, g, concept).Stable
			if got != want {
				t.Fatalf("%s at α=%s on %s: certificate says %v, checker says %v (cert %s)",
					concept, alpha, g, got, want, set)
			}
		}
		if alpha, err := game.NewAlpha(num, den); err == nil {
			probe(alpha)
		}
		for den := int64(1); den <= 3; den++ {
			for num := int64(0); num <= 9; num++ {
				probe(game.AFrac(num, den))
			}
		}
		bps := set.Breakpoints()
		for i, bp := range bps {
			probe(bp)
			if i+1 < len(bps) {
				if mid, err := game.NewAlpha(
					bp.Num()*bps[i+1].Den()+bps[i+1].Num()*bp.Den(),
					2*bp.Den()*bps[i+1].Den()); err == nil {
					probe(mid)
				}
			}
		}
		if len(bps) > 0 {
			last := bps[len(bps)-1]
			probe(game.AFrac(last.Num()+last.Den(), last.Den()))
		}
	})
}

// extremeSeedGraphs are P5, the star and K5: the graphs on which Check and
// Certify once disagreed at the extremeAlphas, when the comparisons
// multiplied in 64 bits.
var extremeSeedGraphs = []string{
	"n 5\n0 1\n1 2\n2 3\n3 4\n",
	"n 5\n0 1\n0 2\n0 3\n0 4\n",
	"n 5\n0 1\n0 2\n0 3\n0 4\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n",
}
