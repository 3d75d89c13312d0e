// Package ncg implements the unilateral Network Creation Game of
// Fabrikant, Luthra, Maneva, Papadimitriou and Shenker — the baseline the
// paper compares the bilateral game against. A state is a graph plus an
// edge ownership; agents unilaterally choose which edges to buy.
//
// The package provides exhaustive best responses, greedy-equilibrium and
// Nash checks, searches for stabilizing ownerships, and the tree PoA of
// the unilateral game, enabling the paper's motivating comparison: the
// bilateral game with Pairwise Stability is socially worse than the
// unilateral game with NE.
//
// Since the GameVariant redesign the graph-level (ownership-free) checks
// are shims over the variant engine: eq.Check with
// game.Variant{Consent: game.ConsentUnilateral} evaluates — and
// eq.Certify parametrically certifies — the unilateral game with the same
// scans, so sweeps, stores and the serving daemon handle it like any
// other variant (pass `-variant unilateral`). UnilateralVariant returns
// that descriptor. Only the ownership-resolved checks (who pays for an
// existing edge) remain NCG-specific; the differential tests pin that the
// rerouted entry points are byte-identical to the historical direct
// implementations.
package ncg

import (
	"fmt"

	"repro/internal/eq"
	"repro/internal/game"
	"repro/internal/graph"
)

// BestResponse returns an exhaustive best-response strategy (set of bought
// edge targets) for agent u against the fixed strategies of everyone else
// in (g, o), together with its cost. 2^(n-1) candidate strategies; for the
// small instances of the Section 2 comparisons.
func BestResponse(gm game.Game, g *graph.Graph, o *game.Ownership, u int) ([]int, game.Cost) {
	n := g.N()
	// Edges that persist regardless of u's strategy: those owned by others.
	base := graph.New(n)
	for _, e := range g.Edges() {
		if owner, _ := o.Owner(e.U, e.V); owner != u {
			base.AddEdge(e.U, e.V)
		}
	}
	var targets []int
	for v := 0; v < n; v++ {
		if v != u {
			targets = append(targets, v)
		}
	}
	var (
		bestBuy  []int
		bestCost game.Cost
		first    = true
	)
	for mask := 0; mask < 1<<len(targets); mask++ {
		trial := base.Clone()
		var buy []int
		for i, v := range targets {
			if mask&(1<<i) != 0 {
				buy = append(buy, v)
				trial.AddEdge(u, v)
			}
		}
		sum, unreachable := trial.TotalDist(u)
		cost := game.Cost{Unreachable: int64(unreachable), Buy: int64(len(buy)), Dist: sum}
		if first || cost.Less(bestCost, gm.Alpha) {
			first = false
			bestCost = cost
			bestBuy = buy
		}
	}
	return bestBuy, bestCost
}

// ExistsNEOwnership reports whether some edge ownership makes g a pure NE
// of the unilateral NCG, returning a stabilizing ownership if so. It
// enumerates all 2^m ownerships; for small gadget graphs.
func ExistsNEOwnership(gm game.Game, g *graph.Graph) (*game.Ownership, bool) {
	var found *game.Ownership
	game.AllOwnerships(g, func(o *game.Ownership) {
		if found != nil {
			return
		}
		if eq.CheckUnilateralNE(gm, g, o.Clone()).Stable {
			found = o.Clone()
		}
	})
	return found, found != nil
}

// UnilateralVariant returns the variant descriptor of the unilateral NCG
// in equilibrium form: every concept of the certificate engine evaluated
// with initiator-only consent. eq.Check/Certify with this variant is the
// swept, persisted and served form of this package's game.
func UnilateralVariant() game.Variant {
	v, err := game.ParseVariant("unilateral")
	if err != nil {
		panic(err) // unreachable: the canonical descriptor always parses
	}
	return v
}

// CheckGE reports whether (g, o) is a Greedy Equilibrium (Lenzner): no
// agent improves by unilaterally adding one edge, deleting one owned edge,
// or swapping one owned edge for another incident edge. The add scan
// routes through the variant engine (eq.CheckUnilateralAE is a shim over
// the unilateral-consent BAE check); the remove and swap scans need the
// ownership and stay NCG-specific.
func CheckGE(gm game.Game, g *graph.Graph, o *game.Ownership) eq.Result {
	if r := eq.CheckUnilateralRE(gm, g, o); !r.Stable {
		return r
	}
	if r := eq.CheckUnilateralAE(gm, g); !r.Stable {
		return r
	}
	return checkUnilateralSwap(gm, g, o)
}

// checkUnilateralSwap looks for an improving owner-side single-edge swap.
func checkUnilateralSwap(gm game.Game, g *graph.Graph, o *game.Ownership) eq.Result {
	for _, e := range g.Edges() {
		owner, ok := o.Owner(e.U, e.V)
		if !ok {
			panic(fmt.Sprintf("ncg: edge %v without owner", e))
		}
		old := e.Other(owner)
		before := gm.NCGAgentCost(g, o, owner)
		for w := 0; w < g.N(); w++ {
			if w == owner || w == old || g.HasEdge(owner, w) {
				continue
			}
			g.RemoveEdge(owner, old)
			g.AddEdge(owner, w)
			o.Delete(owner, old)
			o.SetOwner(owner, w, owner)
			after := gm.NCGAgentCost(g, o, owner)
			o.Delete(owner, w)
			o.SetOwner(owner, old, owner)
			g.RemoveEdge(owner, w)
			g.AddEdge(owner, old)
			if after.Less(before, gm.Alpha) {
				return eq.Result{Stable: false, Witness: swapWitness{owner: owner, old: old, new_: w}}
			}
		}
	}
	return eq.Result{Stable: true}
}

// swapWitness reports an improving unilateral swap. It implements
// move.Move for witness reporting only; applying it needs the ownership,
// so Apply is unsupported.
type swapWitness struct {
	owner, old, new_ int
}

// Apply is unsupported: unilateral swaps act on (graph, ownership) pairs.
func (w swapWitness) Apply(*graph.Graph) (func(), error) {
	return nil, fmt.Errorf("ncg: unilateral swap cannot apply to a bare graph")
}

// Actors implements move.Move.
func (w swapWitness) Actors() []int { return []int{w.owner} }

func (w swapWitness) String() string {
	return fmt.Sprintf("ncg-swap(%d: %d-%d -> %d-%d)", w.owner, w.owner, w.old, w.owner, w.new_)
}

// TreePoA returns the worst social cost ratio over all trees on n nodes
// that admit at least one NE ownership, together with how many tree
// classes admit one. This is the unilateral baseline for the paper's
// motivating comparison; Fabrikant et al. bound it by 5.
func TreePoA(n int, alpha game.Alpha) (worst float64, stable int, err error) {
	gm, err := game.NewGame(n, alpha)
	if err != nil {
		return 0, 0, err
	}
	for g := range graph.AllFreeTrees(n) {
		if _, ok := ExistsNEOwnership(gm, g); !ok {
			continue
		}
		stable++
		if rho := gm.Rho(g); rho > worst {
			worst = rho
		}
	}
	return worst, stable, nil
}
