package eq

import (
	"fmt"

	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/move"
)

// CheckUnilateralRE reports whether (g, o) is a Remove Equilibrium of the
// unilateral NCG: no agent strictly improves by removing an edge she owns
// (she alone stops paying; the edge disappears).
func CheckUnilateralRE(gm game.Game, g *graph.Graph, o *game.Ownership) Result {
	for _, e := range g.Edges() {
		owner, ok := o.Owner(e.U, e.V)
		if !ok {
			panic(fmt.Sprintf("eq: edge %v without owner", e))
		}
		before := gm.NCGAgentCost(g, o, owner)
		g.RemoveEdge(e.U, e.V)
		o.Delete(e.U, e.V)
		after := gm.NCGAgentCost(g, o, owner)
		o.SetOwner(e.U, e.V, owner)
		g.AddEdge(e.U, e.V)
		if after.Less(before, gm.Alpha) {
			return unstable(move.Remove{U: owner, V: e.Other(owner)})
		}
	}
	return stable()
}

// CheckUnilateralAE reports whether g is an Add Equilibrium of the
// unilateral NCG: no agent strictly improves by buying a single new edge on
// her own. Ownership is irrelevant: the buyer pays α regardless.
//
// It is the BAE scan under unilateral consent, and the differential tests
// pin that it is byte-identical to the historical direct implementation.
func CheckUnilateralAE(gm game.Game, g *graph.Graph) Result {
	gm.Variant.Consent = game.ConsentUnilateral
	return Check(gm, g, BAE)
}

// NCGStrategyChange is the witness of a unilateral NE violation: agent U
// replaces her bought-edge set with Buy.
type NCGStrategyChange struct {
	U   int
	Buy []int
}

// Apply is unsupported: NCG strategy changes act on (graph, ownership)
// pairs, not bare graphs. It exists to satisfy move.Move for witness
// reporting.
func (m NCGStrategyChange) Apply(*graph.Graph) (func(), error) {
	return nil, fmt.Errorf("move: NCG strategy change cannot apply to a bare graph")
}

// Actors implements move.Move.
func (m NCGStrategyChange) Actors() []int { return []int{m.U} }

func (m NCGStrategyChange) String() string {
	return fmt.Sprintf("ncg-strategy(%d buys %v)", m.U, m.Buy)
}

// CheckUnilateralNE reports whether (g, o) is a pure Nash equilibrium of
// the unilateral NCG: no agent improves by replacing her entire bought-edge
// set. The check enumerates all 2^(n-1) strategies per agent and is
// intended for the small Section 2 gadgets.
func CheckUnilateralNE(gm game.Game, g *graph.Graph, o *game.Ownership) Result {
	n := g.N()
	for u := 0; u < n; u++ {
		before := gm.NCGAgentCost(g, o, u)
		// Edges present independently of u's strategy: all edges not owned
		// by u (owned edges of others persist even towards u).
		base := graph.New(n)
		for _, e := range g.Edges() {
			owner, _ := o.Owner(e.U, e.V)
			if owner != u {
				base.AddEdge(e.U, e.V)
			}
		}
		var targets []int
		for v := 0; v < n; v++ {
			if v != u {
				targets = append(targets, v)
			}
		}
		for mask := 0; mask < 1<<len(targets); mask++ {
			buy := subsetOf(targets, mask)
			trial := base.Clone()
			for _, v := range buy {
				trial.AddEdge(u, v) // no-op if the other side already buys it
			}
			sum, unreachable := trial.TotalDist(u)
			after := game.Cost{
				Unreachable: int64(unreachable),
				Buy:         int64(len(buy)),
				Dist:        sum,
			}
			if after.Less(before, gm.Alpha) {
				return unstable(NCGStrategyChange{U: u, Buy: buy})
			}
		}
	}
	return stable()
}

// CheckMultiRemove reports whether some agent improves by removing any
// subset of her incident edges at once. Proposition A.2 (after Corbo and
// Parkes) implies this is equivalent to CheckRE; the experiments verify
// that equivalence. Like the bilateral scans, subsets are applied and
// reverted in place, with a Neighborhood move built only as witness.
func CheckMultiRemove(gm game.Game, g *graph.Graph) Result {
	var c checker
	c.reset(gm, g)
	for u := 0; u < g.N(); u++ {
		nb := c.snapshotNeighbors(u)
		for mask := 1; mask < 1<<len(nb); mask++ {
			for i, v := range nb {
				if mask&(1<<i) != 0 {
					c.g.RemoveEdge(u, v)
				}
			}
			imp := c.improves(u)
			for i, v := range nb {
				if mask&(1<<i) != 0 {
					c.g.AddEdge(u, v)
				}
			}
			if imp {
				return unstable(move.Neighborhood{U: u, RemoveTo: subsetOf(nb, mask)})
			}
		}
	}
	return stable()
}
