package eq

import (
	"fmt"
	"math/bits"

	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/move"
)

// This file holds the one enumeration of each concept's deviation space.
// A scan runs toward one of two targets:
//
//   - a point, the price gm.Alpha (Check, CheckBound, CheckKBSE,
//     CheckUnilateralAE): each actor is tested with the exact Cost
//     comparison at that price, and the scan stops at the first deviation
//     whose actors all strictly improve, which becomes the witness;
//   - the whole α-axis (Certify, CertifyBound): each actor's improving
//     α-interval is computed from the exact cost deltas, the actors'
//     intervals are intersected, and the union over all deviations is
//     accumulated; the stable AlphaSet is its complement.
//
// Both targets share two early exits: per deviation, the actors are
// abandoned at the first one that does not improve (or whose interval
// empties the intersection); per scan, the search aborts once the
// improving deviations cover the target — a state unstable at every price
// certifies as fast as a point check refutes it. Because the point test
// is Cost.Less and the axis test is interval arithmetic, the certificate
// differential tests and FuzzCertificateAgreement check one against the
// other over the same enumeration.

// Certify returns the exact set of edge prices at which g is stable for
// concept c. The α carried by gm is irrelevant — only the node count is
// read — because the certificate covers the whole axis; it exists in the
// signature so Certify mirrors Check. Like Check it allocates fresh
// buffers per call; hot loops use Evaluator.Certify or
// Evaluator.CertifyBound.
func Certify(gm game.Game, g *graph.Graph, c Concept) AlphaSet {
	var ch checker
	ch.reset(gm, g)
	return ch.certify(c)
}

// Certify is the evaluator counterpart of the package-level Certify,
// reusing the evaluator's BFS, baseline and scan buffers. The baseline
// agent costs are α-independent (they are exact (unreachable, buy, dist)
// triples), so one Bind serves both CheckBound and CertifyBound.
func (ev *Evaluator) Certify(gm game.Game, g *graph.Graph, c Concept) AlphaSet {
	ev.c.reset(gm, g)
	return ev.c.certify(c)
}

// CertifyBound certifies concept c on the state bound by the last Bind.
// It must not be called before Bind. Every scan restores the evaluator's
// private adjacency before returning, so CheckBound and CertifyBound can
// interleave freely on one bound state.
func (ev *Evaluator) CertifyBound(c Concept) AlphaSet { return ev.c.certify(c) }

// begin starts a scan toward a target: the single price gm.Alpha when
// point is set, the whole α-axis otherwise.
func (c *checker) begin(point bool) {
	c.point = point
	c.covered = false
	c.witness = nil
	c.union = c.union[:0]
}

// verdict reads a point scan's result: stable unless a deviation covered
// the price, with that deviation as the witness.
func (c *checker) verdict() Result { return Result{Stable: !c.covered, Witness: c.witness} }

// check runs concept's scan at the price gm.Alpha.
func (c *checker) check(concept Concept) Result {
	c.begin(true)
	c.scan(concept)
	return c.verdict()
}

// certify runs concept's scan over the whole α-axis and folds the
// accumulated improving union into the stable AlphaSet.
func (c *checker) certify(concept Concept) AlphaSet {
	c.begin(false)
	c.scan(concept)
	return complementAxis(c.union)
}

// scan dispatches to the concept's deviation scans, in the order that
// fixes which deviation a point scan reports: PS is RE then BAE, BGE is
// PS then BSwE.
func (c *checker) scan(concept Concept) {
	switch concept {
	case RE:
		c.certRE()
	case BAE:
		c.certBAE()
	case PS:
		c.certRE()
		c.certBAE()
	case BSwE:
		c.certBSwE()
	case BGE:
		c.certRE()
		c.certBAE()
		c.certBSwE()
	case BNE:
		c.certBNE()
	case TwoBSE:
		c.certKBSE(2)
	case ThreeBSE:
		c.certKBSE(3)
	case BSE:
		c.certKBSE(c.n)
	default:
		panic(fmt.Sprintf("eq: unknown concept %d", int(concept)))
	}
}

// ImprovingIntervalOf is the exported face of the certificate engine's
// per-deviation arithmetic: the exact α-interval on which `after` is
// strictly cheaper than `before`, and whether it is non-empty. The
// breakpoint-guided dynamics scheduler uses it to rank improving moves by
// how far α sits from the price at which they stop improving. Heterogeneous
// price multipliers are the caller's concern: scale both costs by the
// agent's (p, q) first (game.Cost.Scale), exactly as Certify does.
func ImprovingIntervalOf(before, after game.Cost) (AlphaInterval, bool) {
	return improvingIntervalOf(before, after)
}

// Contains reports whether α lies in the interval.
func (iv AlphaInterval) Contains(a game.Alpha) bool {
	return iv.contains(RatOf(a.Num(), a.Den()))
}

// improvingIntervalOf returns the exact α-interval on which `after` is
// strictly cheaper than `before` under the lexicographic cost order, and
// whether that interval is non-empty. With equal reachability the
// comparison is num·ΔBuy + den·ΔDist < 0, which flips at the single
// rational breakpoint α* = −ΔDist/ΔBuy; unequal reachability decides
// independently of α (the paper's M > α·n³ disconnection price).
func improvingIntervalOf(before, after game.Cost) (AlphaInterval, bool) {
	if after.Unreachable != before.Unreachable {
		if after.Unreachable < before.Unreachable {
			return fullAxis(), true
		}
		return AlphaInterval{}, false
	}
	dBuy := after.Buy - before.Buy
	dDist := after.Dist - before.Dist
	switch {
	case dBuy == 0:
		if dDist < 0 {
			return fullAxis(), true
		}
		return AlphaInterval{}, false
	case dBuy > 0:
		// Improves iff α < −ΔDist/ΔBuy: a half-open prefix of the axis.
		if dDist >= 0 {
			return AlphaInterval{}, false // breakpoint at or below 0
		}
		return AlphaInterval{Lo: RatOf(0, 1), Hi: RatOf(-dDist, dBuy), HiOpen: true}, true
	default:
		// Improves iff α > ΔDist/(−ΔBuy): an open suffix of the axis.
		if dDist < 0 {
			return fullAxis(), true // breakpoint below 0
		}
		return AlphaInterval{Lo: RatOf(dDist, -dBuy), LoOpen: true, Hi: RatInf()}, true
	}
}

// The deviation protocol of the scans — a begin/actor/commit triple on
// plain checker fields rather than closures, so the per-deviation hot path
// (run millions of times per sweep) allocates nothing:
//
//	c.toggle(u, v) ...                   // apply the deviation's edges
//	c.devBegin()
//	c.devActor(u) && c.devActor(v) ...   // false once the deviation fails
//	done := c.devCommit()                // true once the target is covered
//
// The edges are toggled on the checker's private adjacency, never on the
// bound graph, and every scan toggles them back before it returns. Scans
// over subsets (BNE, coalitions) visit their masks in increasing order and
// step from one mask to the next with flip, toggling only the changed
// bits. done tells the scan to stop. A point scan is done at its first
// deviation whose actors all improve at gm.Alpha, and only then builds the
// witness move; an axis scan is done once the improving union covers
// [0, ∞).

// devBegin starts a new deviation with the whole axis as the running
// intersection of the actors' improving intervals.
func (c *checker) devBegin() {
	c.devIval = fullAxis()
	c.devAlive = true
}

// devActor adds agent u as an actor of the current deviation, in the
// current (toggled) private adjacency. At a point target u must improve at gm.Alpha;
// on the axis her improving interval narrows the running intersection.
// It reports whether the deviation can still improve every actor so far —
// the scans' per-deviation early exit.
func (c *checker) devActor(u int) bool {
	before, after := c.costs(u)
	if c.point {
		c.devAlive = after.Less(before, c.gm.Alpha)
		return c.devAlive
	}
	a, ok := improvingIntervalOf(before, after)
	if !ok {
		c.devAlive = false
		return false
	}
	c.devIval = intersect(c.devIval, a)
	if c.devIval.empty() {
		c.devAlive = false
		return false
	}
	return true
}

// devCommit closes the current deviation and reports whether the target
// is now covered. A still-alive deviation covers a point target outright;
// on the axis its interval is merged into the union.
func (c *checker) devCommit() bool {
	if c.devAlive {
		if c.point {
			c.covered = true
		} else {
			c.mergeDeviation()
		}
	}
	return c.covered
}

// mergeDeviation merges the closed deviation's interval into the union.
// It is kept out of devCommit so that devCommit inlines into the scans.
func (c *checker) mergeDeviation() {
	c.union = unionAdd(c.union, c.devIval)
	c.covered = coversAxis(c.union)
}

// accumulate1 and accumulate2 are the fixed-arity conveniences of the
// single-agent and pairwise scans.
func (c *checker) accumulate1(u int) bool {
	c.devBegin()
	c.devActor(u)
	return c.devCommit()
}

func (c *checker) accumulate2(u, v int) bool {
	c.devBegin()
	if c.devActor(u) {
		c.devActor(v)
	}
	return c.devCommit()
}

// certRE scans the single-edge removals: edges in canonical (U<V)
// lexicographic order — the Edges() order — with the smaller endpoint
// tried as the remover first.
func (c *checker) certRE() {
	for u := 0; u < c.n && !c.covered; u++ {
		for _, v := range c.snapshotNeighbors(u) {
			if v < u {
				continue
			}
			c.toggle(u, v)
			remover, done := u, c.accumulate1(u)
			if !done {
				remover, done = v, c.accumulate1(v)
			}
			c.toggle(u, v)
			if done {
				if c.point {
					c.witness = move.Remove{U: remover, V: u + v - remover}
				}
				return
			}
		}
	}
}

// certBAE scans the single-edge additions: bilateral pairs u<v with both
// endpoints as actors, or — under unilateral consent — ordered
// (buyer, target) pairs with the buyer as sole actor.
func (c *checker) certBAE() {
	for u := 0; u < c.n && !c.covered; u++ {
		v := u + 1
		if c.unilateral {
			v = 0
		}
		for ; v < c.n; v++ {
			if v == u || c.has(u, v) {
				continue
			}
			c.toggle(u, v)
			var done bool
			if c.unilateral {
				done = c.accumulate1(u)
			} else {
				done = c.accumulate2(u, v)
			}
			c.toggle(u, v)
			if done {
				if c.point {
					c.witness = move.Add{U: u, V: v}
				}
				return
			}
		}
	}
}

// certBSwE scans the edge swaps uv → uw: actors u and the new partner w,
// or u alone under unilateral consent.
func (c *checker) certBSwE() {
	for u := 0; u < c.n && !c.covered; u++ {
		for _, v := range c.snapshotNeighbors(u) {
			c.toggle(u, v)
			for w := 0; w < c.n; w++ {
				if w == u || w == v || c.has(u, w) {
					continue
				}
				c.toggle(u, w)
				var done bool
				if c.unilateral {
					done = c.accumulate1(u)
				} else {
					done = c.accumulate2(u, w)
				}
				c.toggle(u, w)
				if done {
					c.toggle(u, v)
					if c.point {
						c.witness = move.Swap{U: u, Old: v, New: w}
					}
					return
				}
			}
			c.toggle(u, v)
		}
	}
}

// certBNE scans every neighborhood change around each agent u: drop the
// incident subset selected by rMask, connect to the non-neighbor subset
// selected by aMask. The actors are u and — under bilateral consent —
// every new partner. The pairs are visited rMask-major, as the one mask
// rMask<<len(nn) | aMask over the flips u–nn[0..], u–nb[0..]. The search
// is exact over all 2^{deg(u)} × 2^{n-1-deg(u)} pairs per agent, intended
// for n up to roughly 16.
func (c *checker) certBNE() {
	for u := 0; u < c.n && !c.covered; u++ {
		nb := c.snapshotNeighbors(u)
		nn := c.nnbuf[:0]
		flips := c.flips[:0]
		for v := 0; v < c.n; v++ {
			if v != u && !c.has(u, v) {
				nn = append(nn, v)
				flips = append(flips, graph.Edge{U: u, V: v})
			}
		}
		for _, v := range nb {
			flips = append(flips, graph.Edge{U: u, V: v})
		}
		c.nnbuf, c.flips = nn, flips
		if len(flips) > 62 {
			panic("eq: neighborhood move space too large for an exact BNE scan")
		}
		adds := uint64(1)<<len(nn) - 1
		var mask uint64 // the flips currently applied
		done := false
		for next := uint64(1); next < 1<<len(flips) && !done; next++ {
			c.flip(flips, mask^next)
			mask = next
			c.devBegin()
			if c.devActor(u) && !c.unilateral {
				for a := mask & adds; a != 0; a &= a - 1 {
					if !c.devActor(nn[bits.TrailingZeros64(a)]) {
						break
					}
				}
			}
			done = c.devCommit()
		}
		c.flip(flips, mask)
		if done {
			if c.point {
				c.witness = move.Neighborhood{U: u, RemoveTo: subsetOf(nb, mask>>len(nn)), AddTo: subsetOf(nn, mask&adds)}
			}
			return
		}
	}
}

// certKBSE scans every coalition of size at most k and every legal
// (removals, additions) move, with every member as an actor.
func (c *checker) certKBSE(k int) {
	if k < 1 {
		return
	}
	if k > c.n {
		k = c.n
	}
	c.members = c.members[:0]
	c.certCoalitions(0, k)
}

// certCoalitions enumerates coalitions Γ ⊆ V with |Γ| ≤ maxK in
// lexicographic order (members strictly increasing, starting at from),
// growing and shrinking the shared members scratch in place.
func (c *checker) certCoalitions(from, maxK int) {
	if len(c.members) > 0 {
		c.certCoalitionMoves()
		if c.covered {
			return
		}
	}
	if len(c.members) == maxK {
		return
	}
	for v := from; v < c.n; v++ {
		c.members = append(c.members, v)
		c.certCoalitions(v+1, maxK)
		c.members = c.members[:len(c.members)-1]
		if c.covered {
			return
		}
	}
}

// certCoalitionMoves enumerates every (removals, additions) pair legal for
// the current coalition scratch. Removable: existing edges touching the
// coalition, in canonical lexicographic (U<V) order. Addable: absent edges
// inside the coalition, in member order. The pairs are visited
// removals-major, as the one mask rMask<<len(addable) | aMask over the
// flips addable ++ removable.
func (c *checker) certCoalitionMoves() {
	n := c.n
	if cap(c.inCoal) < n {
		c.inCoal = make([]bool, n)
	}
	inCoal := c.inCoal[:n]
	clear(inCoal)
	for _, u := range c.members {
		inCoal[u] = true
	}
	flips := c.flips[:0]
	for i := 0; i < len(c.members); i++ {
		for j := i + 1; j < len(c.members); j++ {
			if !c.has(c.members[i], c.members[j]) {
				flips = append(flips, graph.Edge{U: c.members[i], V: c.members[j]})
			}
		}
	}
	nAdd := len(flips)
	for u := 0; u < n; u++ {
		for _, v := range c.snapshotNeighbors(u) {
			if u < v && (inCoal[u] || inCoal[v]) {
				flips = append(flips, graph.Edge{U: u, V: v})
			}
		}
	}
	c.flips = flips
	if len(flips)-nAdd > 30 || nAdd > 30 {
		// Guard against accidental astronomically large searches; the
		// exact scan is documented for small instances only.
		panic("eq: coalition move space too large for an exact k-BSE scan")
	}
	var mask uint64 // the flips currently applied
	done := false
	for next := uint64(1); next < 1<<len(flips) && !done; next++ {
		c.flip(flips, mask^next)
		mask = next
		c.devBegin()
		for _, u := range c.members {
			if !c.devActor(u) {
				break
			}
		}
		done = c.devCommit()
	}
	c.flip(flips, mask)
	if done && c.point {
		c.witness = move.Coalition{
			Members:     append([]int(nil), c.members...),
			RemoveEdges: subsetOf(flips[nAdd:], mask>>nAdd),
			AddEdges:    subsetOf(flips[:nAdd], mask&(1<<nAdd-1)),
		}
	}
}

// subsetOf returns the elements of s selected by mask, or nil for the
// empty mask.
func subsetOf[T any](s []T, mask uint64) []T {
	if mask == 0 {
		return nil
	}
	out := make([]T, 0, len(s))
	for i, v := range s {
		if mask&(1<<i) != 0 {
			out = append(out, v)
		}
	}
	return out
}
