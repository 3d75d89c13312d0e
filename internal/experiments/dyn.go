package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/dynamics"
	"repro/internal/eq"
	"repro/internal/game"
	"repro/internal/graph"
)

func init() {
	register("DYN", runDynamics)
}

// runDynamics is the supporting convergence experiment: improving-response
// dynamics from random connected graphs reach PS (and BGE) states, those
// states verify against the exact checkers, and the sampled equilibrium
// quality stays below the exhaustive worst case.
func runDynamics(ctx context.Context, s Scale) *Report {
	r := &Report{ID: "DYN", Title: "Improving-response dynamics to PS and BGE"}
	n := 10
	samples := 20
	if s == Full {
		samples = 60
	}
	rng := rand.New(rand.NewSource(42))
	for _, alphaInt := range []int64{2, 5, 12} {
		alpha := game.A(alphaInt)
		gm, err := game.NewGame(n, alpha)
		if err != nil {
			r.addCheck("setup", false, "%v", err)
			return r
		}
		psKinds := []dynamics.Kind{dynamics.RemoveKind, dynamics.AddKind}
		bgeKinds := append(psKinds, dynamics.SwapKind)

		stPS, err := dynamics.Sample(ctx, gm, n, samples, dynamics.Options{Kinds: psKinds, Rng: rng})
		if err != nil {
			r.addCheck("PS sample", false, "%v", err)
			return r
		}
		stBGE, err := dynamics.Sample(ctx, gm, n, samples, dynamics.Options{Kinds: bgeKinds, Rng: rng})
		if err != nil {
			r.addCheck("BGE sample", false, "%v", err)
			return r
		}
		r.addLinef("α=%-3d PS : conv %d/%d, mean ρ %.3f, worst ρ %.3f, mean steps %.1f",
			alphaInt, stPS.Converged, stPS.Samples, stPS.MeanRho, stPS.WorstRho, stPS.MeanSteps)
		r.addLinef("α=%-3d BGE: conv %d/%d, mean ρ %.3f, worst ρ %.3f, mean steps %.1f",
			alphaInt, stBGE.Converged, stBGE.Samples, stBGE.MeanRho, stBGE.WorstRho, stBGE.MeanSteps)
		r.addCheck("PS converges", stPS.Converged == stPS.Samples,
			"α=%d: %d/%d", alphaInt, stPS.Converged, stPS.Samples)
		r.addCheck("BGE converges", stBGE.Converged == stBGE.Samples,
			"α=%d: %d/%d", alphaInt, stBGE.Converged, stBGE.Samples)

		// Sampled equilibria stay below the exhaustive tree worst case.
		worst, err := core.WorstTree(ctx, n, alpha, eq.PS)
		if err != nil {
			r.addCheck("worst", false, "%v", err)
			return r
		}
		if worst.Rho > 0 {
			r.addCheck("sampled below worst case", stPS.MeanRho <= worst.Rho+1e-9,
				"α=%d: mean %.3f <= exhaustive worst %.3f", alphaInt, stPS.MeanRho, worst.Rho)
		}
	}

	// Fixed points verify: one BGE run, final state passes the exact
	// checker.
	gm, _ := game.NewGame(n, game.A(5))
	g, err := graph.RandomConnectedGraph(n, n+3, rng)
	if err != nil {
		r.addCheck("gen", false, "%v", err)
		return r
	}
	tr, err := dynamics.Run(ctx, gm, g, dynamics.Options{
		Kinds: []dynamics.Kind{dynamics.RemoveKind, dynamics.AddKind, dynamics.SwapKind},
		Rng:   rng,
	})
	if err != nil {
		r.addCheck("run", false, "%v", err)
		return r
	}
	stable := eq.Check(gm, g, eq.BGE).Stable
	r.addCheck("fixed point is BGE", tr.Converged && stable,
		"converged=%v after %d steps, exact BGE=%v", tr.Converged, tr.Steps, stable)

	// Extension: is convergence guaranteed, not just observed? Build the
	// full improving-move digraph over all labeled graphs and check it for
	// directed cycles (a cycle would mean improving-response dynamics can
	// run forever, as happens in some NCG variants [Kawald–Lenzner]).
	nSG := 4
	if s == Full {
		nSG = 5
	}
	for _, alphaSG := range []game.Alpha{game.AFrac(3, 2), game.A(3), game.A(8)} {
		res, err := dynamics.AnalyzeStateGraph(ctx, nSG, alphaSG, []dynamics.Kind{
			dynamics.RemoveKind, dynamics.AddKind, dynamics.SwapKind,
		})
		if err != nil {
			r.addCheck("state graph", false, "%v", err)
			return r
		}
		detail := fmt.Sprintf("n=%d α=%s: %d states, %d sinks, acyclic=%v",
			nSG, alphaSG, res.States, res.Sinks, res.Acyclic)
		if res.CycleWitness != nil {
			detail += fmt.Sprintf(" (cycle through %s)", res.CycleWitness)
		}
		r.addLinef("  %s", detail)
		r.addCheck("improving dynamics terminate", res.Acyclic, "%s", detail)
	}
	return r
}
