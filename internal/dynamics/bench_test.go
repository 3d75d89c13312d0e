package dynamics

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/game"
	"repro/internal/graph"
)

// BenchmarkFindUniform splits one uniform scan step on a fixed n = 200
// state (300 PS steps at α = 10 from a G(n, 4/n) start, as simulate runs
// them) into its two costs:
//
//   - shuffle: the Fisher–Yates pass over the 19900-pair pool through the
//     engine's division-free draws;
//   - shuffle-intn: the same pass through rand.Intn, for reference;
//   - scan: tryPair on every pair of the pool — the probe verdicts a
//     scan that finds no improving move pays for;
//   - find: one full findUniform (shuffle, then probes up to the first
//     improving move).
func BenchmarkFindUniform(b *testing.B) {
	const n = 200
	rng := rand.New(rand.NewSource(1))
	g, err := graph.RandomConnectedGNP(n, 4.0/n, rng)
	if err != nil {
		b.Fatal(err)
	}
	gm, err := game.NewGame(n, game.A(10))
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{Kinds: []Kind{RemoveKind, AddKind}, MaxSteps: 300, Rng: rng}
	if _, err := Run(context.Background(), gm, g, opts); err != nil {
		b.Fatal(err)
	}
	e := newEngine(gm, g, opts)
	b.Run("shuffle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e.shuffle(rng)
		}
	})
	b.Run("shuffle-intn", func(b *testing.B) {
		ord := e.order
		for i := 0; i < b.N; i++ {
			for k := len(ord) - 1; k > 0; k-- {
				j := rng.Intn(k + 1)
				ord[k], ord[j] = ord[j], ord[k]
			}
		}
	})
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range e.order {
				e.tryPair(p)
			}
		}
	})
	b.Run("find", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e.find(rng)
		}
	})
}
