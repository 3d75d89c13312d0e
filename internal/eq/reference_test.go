package eq

import (
	"iter"
	"slices"

	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/move"
)

// soleActor narrows a move to its initiator U: under unilateral consent
// only the initiator of an add, swap or neighborhood change must improve.
type soleActor struct {
	move.Move
	U int
}

// Actors implements move.Move.
func (m soleActor) Actors() []int { return []int{m.U} }

// referenceCheck is the independent reference for the deviation scans. It
// lists each concept's deviations as move.Move values, in the documented
// scan order, and tests each with Improving semantics: every actor must
// strictly improve. The first improving deviation is the witness. It
// shares no enumeration code with the scans, so a deviation the scans
// miss — and Check and Certify with them — shows up here.
func referenceCheck(gm game.Game, g *graph.Graph, c Concept) Result {
	ev := NewEvaluator()
	ev.Bind(gm, g)
	for m := range referenceMoves(g, c, gm.Variant.Consent == game.ConsentUnilateral) {
		if ev.ImprovingBound(m) {
			if s, ok := m.(soleActor); ok {
				return unstable(s.Move)
			}
			return unstable(m)
		}
	}
	return stable()
}

// referenceMoves yields concept c's deviations on g in scan order. PS is
// RE then BAE; BGE is PS then BSwE.
func referenceMoves(g *graph.Graph, c Concept, unilateral bool) iter.Seq[move.Move] {
	var parts []iter.Seq[move.Move]
	switch c {
	case RE:
		parts = append(parts, removals(g))
	case BAE:
		parts = append(parts, additions(g, unilateral))
	case PS:
		parts = append(parts, removals(g), additions(g, unilateral))
	case BSwE:
		parts = append(parts, swaps(g, unilateral))
	case BGE:
		parts = append(parts, removals(g), additions(g, unilateral), swaps(g, unilateral))
	case BNE:
		parts = append(parts, neighborhoods(g, unilateral))
	case TwoBSE:
		parts = append(parts, coalitions(g, 2))
	case ThreeBSE:
		parts = append(parts, coalitions(g, 3))
	case BSE:
		parts = append(parts, coalitions(g, g.N()))
	}
	return func(yield func(move.Move) bool) {
		for _, p := range parts {
			for m := range p {
				if !yield(m) {
					return
				}
			}
		}
	}
}

// initiated wraps m as a sole-actor move under unilateral consent.
func initiated(m move.Move, u int, unilateral bool) move.Move {
	if unilateral {
		return soleActor{Move: m, U: u}
	}
	return m
}

// removals: each edge in Edges() order, removed by its smaller endpoint,
// then by its larger one.
func removals(g *graph.Graph) iter.Seq[move.Move] {
	return func(yield func(move.Move) bool) {
		for _, e := range g.Edges() {
			if !yield(move.Remove{U: e.U, V: e.V}) || !yield(move.Remove{U: e.V, V: e.U}) {
				return
			}
		}
	}
}

// additions: each absent edge u<v in lexicographic order; under
// unilateral consent each ordered (buyer, target) pair instead.
func additions(g *graph.Graph, unilateral bool) iter.Seq[move.Move] {
	return func(yield func(move.Move) bool) {
		for u := 0; u < g.N(); u++ {
			for v := 0; v < g.N(); v++ {
				if v == u || g.HasEdge(u, v) || (!unilateral && v < u) {
					continue
				}
				if !yield(initiated(move.Add{U: u, V: v}, u, unilateral)) {
					return
				}
			}
		}
	}
}

// swaps: for each agent u, each neighbor v in increasing order, each
// non-neighbor w in increasing order, the swap uv → uw.
func swaps(g *graph.Graph, unilateral bool) iter.Seq[move.Move] {
	return func(yield func(move.Move) bool) {
		for u := 0; u < g.N(); u++ {
			for _, v := range slices.Clone(g.Neighbors(u)) {
				for w := 0; w < g.N(); w++ {
					if w == u || g.HasEdge(u, w) {
						continue
					}
					if !yield(initiated(move.Swap{U: u, Old: v, New: w}, u, unilateral)) {
						return
					}
				}
			}
		}
	}
}

// neighborhoods: for each agent u, every non-empty (drop, connect) pair of
// subsets of her neighbors and non-neighbors, drop mask outer, connect
// mask inner, each mask read with bit i selecting the i-th smallest node.
func neighborhoods(g *graph.Graph, unilateral bool) iter.Seq[move.Move] {
	return func(yield func(move.Move) bool) {
		for u := 0; u < g.N(); u++ {
			nb := slices.Clone(g.Neighbors(u))
			var nn []int
			for v := 0; v < g.N(); v++ {
				if v != u && !g.HasEdge(u, v) {
					nn = append(nn, v)
				}
			}
			for r := 0; r < 1<<len(nb); r++ {
				for a := 0; a < 1<<len(nn); a++ {
					if r == 0 && a == 0 {
						continue
					}
					m := move.Neighborhood{U: u, RemoveTo: pick(nb, r), AddTo: pick(nn, a)}
					if !yield(initiated(m, u, unilateral)) {
						return
					}
				}
			}
		}
	}
}

// coalitions: every coalition of at most k members in lexicographic
// (depth-first) order; for each, every non-empty pair of subsets of the
// edges touching it (Edges() order) and of the absent edges inside it
// (member-pair order), removal mask outer.
func coalitions(g *graph.Graph, k int) iter.Seq[move.Move] {
	return func(yield func(move.Move) bool) {
		var visit func(members []int) bool
		visit = func(members []int) bool {
			if len(members) > 0 {
				var removable, addable []graph.Edge
				for _, e := range g.Edges() {
					if slices.Contains(members, e.U) || slices.Contains(members, e.V) {
						removable = append(removable, e)
					}
				}
				for i, u := range members {
					for _, v := range members[i+1:] {
						if !g.HasEdge(u, v) {
							addable = append(addable, graph.Edge{U: u, V: v})
						}
					}
				}
				for r := 0; r < 1<<len(removable); r++ {
					for a := 0; a < 1<<len(addable); a++ {
						if r == 0 && a == 0 {
							continue
						}
						if !yield(move.Coalition{
							Members:     slices.Clone(members),
							RemoveEdges: pick(removable, r),
							AddEdges:    pick(addable, a),
						}) {
							return false
						}
					}
				}
			}
			if len(members) == k {
				return true
			}
			from := 0
			if len(members) > 0 {
				from = members[len(members)-1] + 1
			}
			for v := from; v < g.N(); v++ {
				if !visit(append(members, v)) {
					return false
				}
			}
			return true
		}
		visit(nil)
	}
}

// pick returns the elements of s whose bit is set in mask (bit i selects
// s[i]), or nil for the empty mask.
func pick[T any](s []T, mask int) []T {
	var out []T
	for i, v := range s {
		if mask&(1<<i) != 0 {
			out = append(out, v)
		}
	}
	return out
}
