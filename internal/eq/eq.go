// Package eq decides stability exactly for every solution concept of the
// paper — RE, BAE, PS, BSwE, BGE, BNE, k-BSE, BSE for the bilateral game,
// and RE/AE/NE for the unilateral NCG — plus the paper's analytic
// stability conditions for the structured lower-bound families.
//
// Each bilateral concept has one deviation scan (certify.go) with two
// targets. Check asks about the single price gm.Alpha and returns a Result
// carrying the first improving deviation as its witness move, so tests and
// experiments can assert on the violation itself. Certify asks about the
// whole α-axis and returns the exact AlphaSet of prices at which the state
// is stable.
//
// The package-level functions allocate fresh working buffers per call.
// Hot loops that evaluate many states — notably the parallel sweep engine
// in repro/internal/sweep — use an Evaluator instead, which reuses its BFS,
// baseline-cost and scan buffers across calls. The deviation scans never
// write to the graph they are given: binding a state copies its adjacency
// into the checker's private bitset rows, and every candidate move is
// explored by toggling edges there. Check, CheckKBSE, CheckMultiRemove and
// Certify (and their Evaluator forms) therefore only read the Graph, and
// any number of goroutines may evaluate one Graph, each with its own
// Evaluator. Improving, CostDelta and CheckUnilateralRE apply moves to the
// graph itself and restore it before returning.
package eq

import (
	"fmt"
	"math/bits"

	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/move"
)

// Concept identifies a solution concept of the bilateral game.
type Concept int

// The solution concepts in the paper's order of increasing cooperation.
const (
	RE Concept = iota + 1
	BAE
	PS
	BSwE
	BGE
	BNE
	TwoBSE
	ThreeBSE
	BSE
)

// String implements fmt.Stringer.
func (c Concept) String() string {
	switch c {
	case RE:
		return "RE"
	case BAE:
		return "BAE"
	case PS:
		return "PS"
	case BSwE:
		return "BSwE"
	case BGE:
		return "BGE"
	case BNE:
		return "BNE"
	case TwoBSE:
		return "2-BSE"
	case ThreeBSE:
		return "3-BSE"
	case BSE:
		return "BSE"
	default:
		return fmt.Sprintf("Concept(%d)", int(c))
	}
}

// MarshalJSON renders the concept as its paper name ("PS", "2-BSE", ...),
// so JSON output is stable across reorderings of the enum.
func (c Concept) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%q", c.String())), nil
}

// Concepts lists all bilateral concepts in cooperation order.
func Concepts() []Concept {
	return []Concept{RE, BAE, PS, BSwE, BGE, BNE, TwoBSE, ThreeBSE, BSE}
}

// ParseConcept parses a concept's paper name ("PS", "2-BSE", …) — the form
// String renders — so concepts round-trip through flags, checkpoints and
// URLs.
func ParseConcept(s string) (Concept, error) {
	for _, c := range Concepts() {
		if s == c.String() {
			return c, nil
		}
	}
	return 0, fmt.Errorf("eq: unknown concept %q (want RE, BAE, PS, BSwE, BGE, BNE, 2-BSE, 3-BSE, BSE)", s)
}

// Result is a stability verdict with the violating move when unstable.
type Result struct {
	Stable  bool
	Witness move.Move
}

func stable() Result { return Result{Stable: true} }

func unstable(w move.Move) Result { return Result{Stable: false, Witness: w} }

// Check reports whether g is stable for concept c at the price gm.Alpha,
// with the first improving deviation in scan order as the witness when it
// is not. BSE uses coalitions of size up to n.
func Check(gm game.Game, g *graph.Graph, c Concept) Result {
	var ch checker
	ch.reset(gm, g)
	return ch.check(c)
}

// CheckKBSE reports whether g is a Bilateral k-Strong Equilibrium: no
// coalition Γ of size at most k has a move — deleting edges that touch Γ
// and adding edges inside Γ — from which every member of Γ strictly
// benefits. CheckKBSE(gm, g, g.N()) is the full BSE check.
//
// The search is exact: it enumerates every coalition, every removable edge
// subset and every addable edge subset, with early-exit cost evaluation.
// Complexity is exponential; it is intended for n ≤ 6 at k = n and n ≤ ~12
// for k ≤ 3.
func CheckKBSE(gm game.Game, g *graph.Graph, k int) Result {
	var c checker
	c.reset(gm, g)
	c.begin(true)
	c.certKBSE(k)
	return c.verdict()
}

// Evaluator is a reusable equilibrium evaluator: it keeps the BFS scratch,
// the baseline-cost slice and the deviation-scan buffers alive between
// calls, so sweeps over many states allocate nothing per stability check
// (at sweep sizes) instead of re-allocating per state. The scans toggle
// edges on the evaluator's private copy of the bound adjacency and only
// materialize a move.Move on the cold unstable path, for the witness.
//
// An Evaluator is deliberately not safe for concurrent use, but the Graph
// it evaluates is only read by Check, CheckBound, Certify and CertifyBound,
// so a parallel sweep gives each worker goroutine its own Evaluator over
// the shared class graphs. Improving and ImprovingBound are the exception:
// they apply one move.Move to the bound graph and revert it.
type Evaluator struct {
	c checker
}

// NewEvaluator returns an Evaluator for use by a single goroutine.
func NewEvaluator() *Evaluator { return &Evaluator{} }

// Check evaluates concept c on state g at game gm, reusing the evaluator's
// buffers. It is equivalent to the package-level Check.
func (ev *Evaluator) Check(gm game.Game, g *graph.Graph, c Concept) Result {
	ev.c.reset(gm, g)
	return ev.c.check(c)
}

// Bind points the evaluator at a state: it copies g's adjacency into the
// evaluator's private bitset rows and computes the baseline agent costs
// once; subsequent CheckBound calls evaluate concepts against the bound
// state without recomputing the baseline. Bind/CheckBound is the sweep
// engine's path for checking several concepts per (graph, α) task: every
// scan restores the private rows before returning, so the baseline stays
// valid across the whole concept grid.
func (ev *Evaluator) Bind(gm game.Game, g *graph.Graph) { ev.c.reset(gm, g) }

// CheckBound evaluates concept c on the state bound by the last Bind. It
// must not be called before Bind.
func (ev *Evaluator) CheckBound(c Concept) Result { return ev.c.check(c) }

// Rho returns the social cost ratio ρ(g) — identical to Game.Rho bit for
// bit — computed with the evaluator's scratch buffers, so PoA reductions
// over a sweep allocate nothing per graph.
func (ev *Evaluator) Rho(gm game.Game, g *graph.Graph) float64 {
	n := g.N()
	if cap(ev.c.dist) < n {
		ev.c.dist = make([]int, n)
	}
	dist := ev.c.dist[:n]
	var total game.Cost
	for u := 0; u < n; u++ {
		g.BFSScratchInto(u, dist, &ev.c.bfs)
		cst := gm.AgentCostFromDist(g, u, dist)
		total.Unreachable += cst.Unreachable
		total.Buy += cst.Buy
		total.Dist += cst.Dist
	}
	return gm.RhoOfCost(total)
}

// checker bundles the state of the deviation scans: the game, the bound
// graph, the scans' private adjacency, the baseline agent costs, the BFS
// scratch, the scan buffers and the scan's target. All buffers grow to the
// largest instance seen and are then reused, so a long-lived checker (via
// Evaluator) performs zero allocations per stable check at sweep sizes.
type checker struct {
	gm game.Game
	// g is the bound graph. reset reads it to fill adj and the baseline;
	// only tryMove, which applies one move.Move, touches it afterwards.
	g *graph.Graph
	// adj is the adjacency the scans explore: n flat rows of w uint64
	// words, bit v of row u set iff uv is an edge (graph.BFSRows layout).
	// A candidate move toggles its edges here, two XORs each.
	n, w int
	adj  []uint64
	base []game.Cost
	dist []int
	bfs  graph.BFSScratch
	// Scratch of the deviation scans. nbuf snapshots the neighbors of the
	// agent under scan (the scans toggle edges while exploring moves);
	// nnbuf its non-neighbors; flips the edges a mask scan selects from
	// (see flip); members and inCoal carry the k-BSE coalition search.
	nbuf    []int
	nnbuf   []int
	flips   []graph.Edge
	members []int
	inCoal  []bool
	// Scan state (see certify.go). point selects the target: the single
	// price gm.Alpha, or the whole α-axis. covered reports that the
	// improving deviations found so far cover the target — the scans'
	// abort signal. A point scan stops at its first improving deviation
	// and records it as witness; an axis scan accumulates the merged
	// union of improving α-intervals, with devIval the running
	// intersection of the current deviation's actor intervals.
	point    bool
	covered  bool
	witness  move.Move
	union    []AlphaInterval
	devIval  AlphaInterval
	devAlive bool
	// Variant state, latched at reset so the hot loops branch on plain
	// booleans: unilateral consent switches the add/swap/neighborhood
	// scans to initiator-only improvement; hetero scales each agent's
	// costs by her multiplier p/q (pmul/qmul) before they are compared at
	// the global α.
	unilateral bool
	hetero     bool
	pmul       []int64
	qmul       []int64
}

// reset points the checker at a new state: it copies g's adjacency into
// the private rows and computes the baseline agent costs on g itself,
// growing the buffers only when the node count does.
func (c *checker) reset(gm game.Game, g *graph.Graph) {
	c.gm = gm
	c.g = g
	n := g.N()
	c.n, c.w = n, (n+63)/64
	if cap(c.base) < n {
		c.base = make([]game.Cost, n)
		c.dist = make([]int, n)
	}
	c.base = c.base[:n]
	c.dist = c.dist[:n]
	if cap(c.adj) < n*c.w {
		c.adj = make([]uint64, n*c.w)
	}
	c.adj = c.adj[:n*c.w]
	clear(c.adj)
	c.unilateral = gm.Variant.Consent == game.ConsentUnilateral
	c.hetero = len(gm.Variant.Prices) > 0
	if c.hetero {
		if cap(c.pmul) < n {
			c.pmul = make([]int64, n)
			c.qmul = make([]int64, n)
		}
		c.pmul = c.pmul[:n]
		c.qmul = c.qmul[:n]
		for u := 0; u < n; u++ {
			c.pmul[u], c.qmul[u] = gm.Variant.MulFor(u)
		}
	}
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(u) {
			c.adj[u*c.w+v>>6] |= 1 << uint(v&63)
		}
		g.BFSScratchInto(u, c.dist, &c.bfs)
		c.base[u] = gm.AgentCostFromDist(g, u, c.dist)
	}
}

// row returns u's row of the private adjacency.
func (c *checker) row(u int) []uint64 { return c.adj[u*c.w : (u+1)*c.w] }

// toggle flips the edge uv in the private adjacency: an absent edge is
// added, a present one removed.
func (c *checker) toggle(u, v int) {
	c.adj[u*c.w+v>>6] ^= 1 << uint(v&63)
	c.adj[v*c.w+u>>6] ^= 1 << uint(u&63)
}

// has reports whether uv is an edge of the private adjacency.
func (c *checker) has(u, v int) bool { return c.adj[u*c.w+v>>6]&(1<<uint(v&63)) != 0 }

// degree returns u's degree in the private adjacency.
func (c *checker) degree(u int) int {
	d := 0
	for _, x := range c.row(u) {
		d += bits.OnesCount64(x)
	}
	return d
}

// flip toggles every edge of flips that set selects (bit i selects
// flips[i]). A mask scan visits masks in increasing order and steps from
// mask−1 to mask with flip(flips, mask^(mask−1)) — the trailing run of
// changed bits, two toggles per step on average — so bit i set in the
// current mask means flips[i] is toggled away from the bound graph; after
// the scan, flip(flips, mask) restores the bound adjacency.
func (c *checker) flip(flips []graph.Edge, set uint64) {
	for ; set != 0; set &= set - 1 {
		e := flips[bits.TrailingZeros64(set)]
		c.toggle(e.U, e.V)
	}
}

// snapshotNeighbors lists u's current neighbors, in increasing order, into
// the checker's scratch. The returned slice is invalidated by the next
// snapshot.
func (c *checker) snapshotNeighbors(u int) []int {
	nb := c.nbuf[:0]
	for wi, x := range c.row(u) {
		for ; x != 0; x &= x - 1 {
			nb = append(nb, wi<<6|bits.TrailingZeros64(x))
		}
	}
	c.nbuf = nb
	return nb
}

// costs returns agent u's baseline cost and her cost in the current
// (possibly toggled) private adjacency, both scaled by her price
// multiplier so that they compare — and yield breakpoints — in the global
// α.
func (c *checker) costs(u int) (before, after game.Cost) {
	graph.BFSRows(c.adj, c.w, u, c.dist, &c.bfs)
	return c.scaled(u, c.gm.CostFromDist(c.degree(u), c.dist))
}

// scaled pairs agent u's baseline cost with after, both scaled by her
// price multiplier.
func (c *checker) scaled(u int, after game.Cost) (game.Cost, game.Cost) {
	before := c.base[u]
	if c.hetero {
		return before.Scale(c.pmul[u], c.qmul[u]), after.Scale(c.pmul[u], c.qmul[u])
	}
	return before, after
}

// improves reports whether agent u's current cost is strictly below her
// baseline cost at the price gm.Alpha.
func (c *checker) improves(u int) bool {
	before, after := c.costs(u)
	return after.Less(before, c.gm.Alpha)
}

// tryMove applies m to the bound graph, evaluates whether all actors
// strictly improve, and reverts the graph. Moves that do not fit the graph
// report false. It is the one evaluation on the caller's graph instead of
// the private adjacency, because a move.Move applies to a *graph.Graph;
// the baseline it compares against was computed on that same graph.
func (c *checker) tryMove(m move.Move) bool {
	undo, err := m.Apply(c.g)
	if err != nil {
		return false
	}
	defer undo()
	for _, u := range m.Actors() {
		c.g.BFSScratchInto(u, c.dist, &c.bfs)
		before, after := c.scaled(u, c.gm.AgentCostFromDist(c.g, u, c.dist))
		if !after.Less(before, c.gm.Alpha) {
			return false
		}
	}
	return true
}
