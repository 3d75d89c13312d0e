package eq

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/game"
	"repro/internal/graph"
)

// TestScansLeaveGraphUntouched pins the read-only contract of the scans:
// Check, CheckKBSE, Certify and CertifyBound explore deviations on the
// checker's private adjacency, so the graph under test encodes
// byte-identically afterwards — on every connected class up to n=5, for
// every concept and every coalition bound.
func TestScansLeaveGraphUntouched(t *testing.T) {
	ev := NewEvaluator()
	for n := 1; n <= 5; n++ {
		gm := game.Game{N: n, Alpha: game.A(2)}
		for g := range graph.All(n, graph.EnumOptions{ConnectedOnly: true, UpToIso: true, MaxEdges: -1}) {
			want := graph.Encode(g)
			ev.Bind(gm, g)
			for _, c := range Concepts() {
				Check(gm, g, c)
				Certify(gm, g, c)
				ev.CertifyBound(c)
				if got := graph.Encode(g); got != want {
					t.Fatalf("n=%d %s: graph %s became %s", n, c, want, got)
				}
			}
			for k := 1; k <= n; k++ {
				CheckKBSE(gm, g, k)
				if got := graph.Encode(g); got != want {
					t.Fatalf("n=%d CheckKBSE k=%d: graph %s became %s", n, k, want, got)
				}
			}
		}
	}
}

// TestEvaluatorsShareGraphConcurrently: because the scans only read the
// bound graph, two Evaluators may scan one *graph.Graph at the same time
// and each gets the sequential verdicts and certificates. Under
// `go test -race` a scan that wrote to the shared graph fails here.
func TestEvaluatorsShareGraphConcurrently(t *testing.T) {
	random, err := graph.RandomConnectedGNP(6, 0.5, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	// The star is stable for every concept at α=2, so its point scans
	// explore every deviation; the random graph exercises witnesses.
	graphs := []*graph.Graph{game.Star(6), random}
	gm := game.Game{N: 6, Alpha: game.A(2)}
	scanAll := func(ev *Evaluator) []string {
		var out []string
		for _, g := range graphs {
			for _, c := range Concepts() {
				ev.Bind(gm, g)
				r := ev.CheckBound(c)
				out = append(out, fmt.Sprintf("%s on %s: stable=%v witness=%v cert=%s", c, g, r.Stable, r.Witness, ev.CertifyBound(c)))
			}
		}
		return out
	}
	want := scanAll(NewEvaluator())
	var wg sync.WaitGroup
	got := make([][]string, 2)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = scanAll(NewEvaluator())
		}()
	}
	wg.Wait()
	for i, res := range got {
		for j := range want {
			if res[j] != want[j] {
				t.Errorf("evaluator %d: %s, sequential %s", i, res[j], want[j])
			}
		}
	}
}
