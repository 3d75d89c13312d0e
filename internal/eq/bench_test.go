package eq

import (
	"math/rand"
	"testing"

	"repro/internal/game"
	"repro/internal/graph"
)

// scanSink keeps the benchmarked results live.
var scanSink bool

// scanCorpus returns the fixed corpus of the per-concept scan benchmark:
// 64 connected G(8, 0.35) graphs from seed 1.
func scanCorpus(b *testing.B) []*graph.Graph {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	out := make([]*graph.Graph, 64)
	for i := range out {
		g, err := graph.RandomConnectedGNP(8, 0.35, rng)
		if err != nil {
			b.Fatal(err)
		}
		out[i] = g
	}
	return out
}

// BenchmarkScan measures one concept's deviation scan on the fixed corpus
// at α ∈ {1, 2, 3, 4}, toward each target. One point op is 256 checks
// (every graph at every α); one axis op is the 64 certificates that answer
// the same 256 queries. At n = 8 the coalition move spaces of 3-BSE and
// BSE make a stable axis scan take seconds, so those two are measured on
// the 112 connected classes of n = 6 instead — the certificates of a
// `bncg critical -n 6` sweep, one axis op per 112 certificates.
func BenchmarkScan(b *testing.B) {
	corpus := scanCorpus(b)
	alphas := []game.Alpha{game.A(1), game.A(2), game.A(3), game.A(4)}
	for _, c := range []Concept{RE, BAE, PS, BSwE, BGE, BNE, TwoBSE} {
		b.Run(c.String()+"/point", func(b *testing.B) {
			ev := NewEvaluator()
			for i := 0; i < b.N; i++ {
				for _, g := range corpus {
					for _, a := range alphas {
						ev.Bind(game.Game{N: 8, Alpha: a}, g)
						scanSink = ev.CheckBound(c).Stable
					}
				}
			}
		})
		b.Run(c.String()+"/axis", func(b *testing.B) {
			ev := NewEvaluator()
			for i := 0; i < b.N; i++ {
				for _, g := range corpus {
					ev.Bind(game.Game{N: 8}, g)
					scanSink = ev.CertifyBound(c).IsEmpty()
				}
			}
		})
	}
	var classes []*graph.Graph
	for g := range graph.All(6, graph.EnumOptions{ConnectedOnly: true, UpToIso: true, MaxEdges: -1}) {
		classes = append(classes, g)
	}
	for _, c := range []Concept{ThreeBSE, BSE} {
		b.Run(c.String()+"/axis", func(b *testing.B) {
			ev := NewEvaluator()
			for i := 0; i < b.N; i++ {
				for _, g := range classes {
					ev.Bind(game.Game{N: 6}, g)
					scanSink = ev.CertifyBound(c).IsEmpty()
				}
			}
		})
	}
}
