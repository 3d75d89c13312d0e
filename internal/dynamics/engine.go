package dynamics

import (
	"math"
	"math/rand"

	"repro/internal/eq"
	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/move"
)

// Scheduler selects the candidate-scan policy of the incremental engine.
type Scheduler int

const (
	// SchedulerUniform shuffles the pair pool every scan and takes the
	// first improving move — the classic randomized best-response walk,
	// and the default (it matches the historical behavior of Run).
	SchedulerUniform Scheduler = iota
	// SchedulerRoundRobin scans pairs in a fixed cyclic order, resuming
	// each scan where the previous improving move was found. No
	// randomness: the walk is fully determined by the initial state.
	SchedulerRoundRobin
	// SchedulerBreakpoint scans every candidate and plays the improving
	// move whose exact α-interval (eq.ImprovingIntervalOf — the same
	// arithmetic that powers eq.Certify) keeps α farthest from its
	// breakpoints: the move that stays improving under the largest price
	// perturbation. Deterministic; costs a full scan per step.
	SchedulerBreakpoint
)

// ParseScheduler parses "uniform", "roundrobin" or "breakpoint".
func ParseScheduler(s string) (Scheduler, bool) {
	switch s {
	case "", "uniform":
		return SchedulerUniform, true
	case "roundrobin", "round-robin":
		return SchedulerRoundRobin, true
	case "breakpoint", "breakpoint-guided":
		return SchedulerBreakpoint, true
	}
	return 0, false
}

func (s Scheduler) String() string {
	switch s {
	case SchedulerRoundRobin:
		return "roundrobin"
	case SchedulerBreakpoint:
		return "breakpoint"
	default:
		return "uniform"
	}
}

// candidate is an unboxed move: probes never build move.Move values, only
// the one move per step that actually commits gets boxed for the history.
type candidate struct {
	kind Kind
	u, v int // Remove: drop (u,v), actor u. Add: buy (u,v), actors u,v.
	w    int // Swap: u trades old neighbor v for w, actors u,w.
}

// engine is the incremental-distance dynamics core. It owns the graph
// through an IncDist kernel: a candidate probe flips the edge, repairs
// only the actors' distance rows, reads their costs off the kernel's
// aggregates, and flips it back — no evaluator re-bind, no fresh BFS.
// The pair pool and scan permutation are allocated once per run.
type engine struct {
	gm    game.Game
	g     *graph.Graph
	inc   *graph.IncDist
	sched Scheduler

	pairs  []graph.Edge // all u<v pairs, fixed for the run
	order  []int32      // scan permutation over pairs (uniform scheduler)
	cursor int          // round-robin resume position

	allowRemove, allowAdd, allowSwap bool
	hetero                           bool
	maxDist                          bool
	alphaF                           float64 // α as float, for breakpoint margins

	rowsBuf [2]int
	nbuf    []int // neighbor snapshot: probes mutate adjacency in place
}

func newEngine(gm game.Game, g *graph.Graph, opts Options) *engine {
	n := g.N()
	e := &engine{
		gm:      gm,
		g:       g,
		inc:     graph.NewIncDist(g),
		sched:   opts.Scheduler,
		pairs:   make([]graph.Edge, 0, n*(n-1)/2),
		hetero:  len(gm.Variant.Prices) > 0,
		maxDist: gm.Variant.Dist == game.DistMax,
		alphaF:  gm.Alpha.Float(),
		nbuf:    make([]int, 0, n),
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			e.pairs = append(e.pairs, graph.Edge{U: u, V: v})
		}
	}
	e.order = make([]int32, len(e.pairs))
	for i := range e.order {
		e.order[i] = int32(i)
	}
	for _, k := range opts.Kinds {
		switch k {
		case RemoveKind:
			e.allowRemove = true
		case AddKind:
			e.allowAdd = true
		case SwapKind:
			e.allowSwap = true
		}
	}
	return e
}

// cost reads agent a's current cost off the kernel aggregates: O(1) for
// the SUM aggregate, one row scan for MAX.
func (e *engine) cost(a int) game.Cost {
	c := game.Cost{
		Unreachable: int64(e.inc.UnreachableFrom(a)),
		Buy:         int64(e.g.Degree(a)),
	}
	if e.maxDist {
		c.Dist = e.inc.MaxDist(a)
	} else {
		c.Dist = e.inc.SumDist(a)
	}
	return c
}

// improves mirrors eq's checker.improves: strict lexicographic improvement
// at the agent's effective price.
func (e *engine) improves(a int, before game.Cost) bool {
	return e.gm.LessFor(a, e.cost(a), before)
}

// apply performs the candidate's edge toggles, repairing either just the
// actors' rows (probe) or every row (commit).
func (e *engine) apply(c candidate, rows []int) {
	switch c.kind {
	case RemoveKind:
		if rows == nil {
			e.inc.RemoveEdge(c.u, c.v)
		} else {
			e.inc.RemoveEdgePartial(c.u, c.v, rows)
		}
	case AddKind:
		if rows == nil {
			e.inc.AddEdge(c.u, c.v)
		} else {
			e.inc.AddEdgePartial(c.u, c.v, rows)
		}
	case SwapKind:
		if rows == nil {
			e.inc.RemoveEdge(c.u, c.v)
			e.inc.AddEdge(c.u, c.w)
		} else {
			e.inc.RemoveEdgePartial(c.u, c.v, rows)
			e.inc.AddEdgePartial(c.u, c.w, rows)
		}
	}
}

// revert undoes a partial apply with the same rows, in reverse order.
func (e *engine) revert(c candidate, rows []int) {
	switch c.kind {
	case RemoveKind:
		e.inc.AddEdgePartial(c.u, c.v, rows)
	case AddKind:
		e.inc.RemoveEdgePartial(c.u, c.v, rows)
	case SwapKind:
		e.inc.RemoveEdgePartial(c.u, c.w, rows)
		e.inc.AddEdgePartial(c.u, c.v, rows)
	}
}

// actors fills rowsBuf with the candidate's actor set (the agents that
// must strictly improve — same sets move.Move.Actors() reports).
func (e *engine) actors(c candidate) []int {
	switch c.kind {
	case RemoveKind:
		e.rowsBuf[0] = c.u
		return e.rowsBuf[:1]
	case AddKind:
		e.rowsBuf[0], e.rowsBuf[1] = c.u, c.v
		return e.rowsBuf[:2]
	default:
		e.rowsBuf[0], e.rowsBuf[1] = c.u, c.w
		return e.rowsBuf[:2]
	}
}

// probe reports whether c strictly improves all its actors. The graph and
// kernel are restored before it returns.
func (e *engine) probe(c candidate) bool {
	rows := e.actors(c)
	var b0, b1 game.Cost
	b0 = e.cost(rows[0])
	if len(rows) == 2 {
		b1 = e.cost(rows[1])
	}
	e.apply(c, rows)
	ok := e.improves(rows[0], b0)
	if ok && len(rows) == 2 {
		ok = e.improves(rows[1], b1)
	}
	e.revert(c, rows)
	return ok
}

// probeMargin is probe for the breakpoint scheduler: when c improves, it
// also returns how far α sits from the nearest breakpoint of the move's
// exact improving interval (the minimum over actors; +Inf when the move
// improves at every price).
func (e *engine) probeMargin(c candidate) (float64, bool) {
	rows := e.actors(c)
	var b0, b1 game.Cost
	b0 = e.cost(rows[0])
	if len(rows) == 2 {
		b1 = e.cost(rows[1])
	}
	e.apply(c, rows)
	margin, ok := e.actorMargin(rows[0], b0)
	if ok && len(rows) == 2 {
		var m2 float64
		if m2, ok = e.actorMargin(rows[1], b1); ok && m2 < margin {
			margin = m2
		}
	}
	e.revert(c, rows)
	return margin, ok
}

// actorMargin computes agent a's exact improving interval via the
// certificate arithmetic and returns α's distance to its boundary.
func (e *engine) actorMargin(a int, before game.Cost) (float64, bool) {
	after := e.cost(a)
	if e.hetero {
		p, q := e.gm.Variant.MulFor(a)
		before, after = before.Scale(p, q), after.Scale(p, q)
	}
	iv, ok := eq.ImprovingIntervalOf(before, after)
	if !ok || !iv.Contains(e.gm.Alpha) {
		return 0, false
	}
	margin := math.Inf(1)
	if !iv.Lo.IsInf() {
		margin = e.alphaF - float64(iv.Lo.Num)/float64(iv.Lo.Den)
	}
	if !iv.Hi.IsInf() {
		if m := float64(iv.Hi.Num)/float64(iv.Hi.Den) - e.alphaF; m < margin {
			margin = m
		}
	}
	return margin, true
}

// tryPair probes every allowed candidate over the pair (u,v) in a fixed
// order and returns the first improving one.
func (e *engine) tryPair(p graph.Edge) (candidate, bool) {
	u, v := p.U, p.V
	if e.g.HasEdge(u, v) {
		if e.allowRemove {
			if c := (candidate{kind: RemoveKind, u: u, v: v}); e.probe(c) {
				return c, true
			}
			if c := (candidate{kind: RemoveKind, u: v, v: u}); e.probe(c) {
				return c, true
			}
		}
		return candidate{}, false
	}
	if e.allowAdd {
		if c := (candidate{kind: AddKind, u: u, v: v}); e.probe(c) {
			return c, true
		}
	}
	if e.allowSwap {
		if c, ok := e.trySwaps(u, v); ok {
			return c, true
		}
		if c, ok := e.trySwaps(v, u); ok {
			return c, true
		}
	}
	return candidate{}, false
}

// trySwaps probes u trading each current neighbor for the non-neighbor w.
// The neighbor list is snapshotted first: probes mutate it in place.
func (e *engine) trySwaps(u, w int) (candidate, bool) {
	e.nbuf = append(e.nbuf[:0], e.g.Neighbors(u)...)
	for _, old := range e.nbuf {
		if c := (candidate{kind: SwapKind, u: u, v: old, w: w}); e.probe(c) {
			return c, true
		}
	}
	return candidate{}, false
}

// find locates the next move under the configured scheduler.
func (e *engine) find(rng *rand.Rand) (candidate, bool) {
	switch e.sched {
	case SchedulerRoundRobin:
		return e.findRoundRobin()
	case SchedulerBreakpoint:
		return e.findBreakpoint()
	default:
		return e.findUniform(rng)
	}
}

// findUniform shuffles the persistent permutation in place and returns the
// first improving candidate.
func (e *engine) findUniform(rng *rand.Rand) (candidate, bool) {
	ord := e.order
	for i := len(ord) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		ord[i], ord[j] = ord[j], ord[i]
	}
	for _, pi := range ord {
		if c, ok := e.tryPair(e.pairs[pi]); ok {
			return c, true
		}
	}
	return candidate{}, false
}

// findRoundRobin scans the cyclic pair order starting where the previous
// improving move was found (the same pair may improve again).
func (e *engine) findRoundRobin() (candidate, bool) {
	n := len(e.pairs)
	for k := 0; k < n; k++ {
		idx := e.cursor + k
		if idx >= n {
			idx -= n
		}
		if c, ok := e.tryPair(e.pairs[idx]); ok {
			e.cursor = idx
			return c, true
		}
	}
	return candidate{}, false
}

// findBreakpoint scans every candidate and keeps the improving move with
// the largest breakpoint margin; ties keep the first in pair order.
func (e *engine) findBreakpoint() (candidate, bool) {
	var best candidate
	bestMargin := math.Inf(-1)
	found := false
	consider := func(c candidate) {
		if m, ok := e.probeMargin(c); ok && m > bestMargin {
			best, bestMargin, found = c, m, true
		}
	}
	for _, p := range e.pairs {
		u, v := p.U, p.V
		if e.g.HasEdge(u, v) {
			if e.allowRemove {
				consider(candidate{kind: RemoveKind, u: u, v: v})
				consider(candidate{kind: RemoveKind, u: v, v: u})
			}
			continue
		}
		if e.allowAdd {
			consider(candidate{kind: AddKind, u: u, v: v})
		}
		if e.allowSwap {
			e.nbuf = append(e.nbuf[:0], e.g.Neighbors(u)...)
			for _, old := range e.nbuf {
				consider(candidate{kind: SwapKind, u: u, v: old, w: v})
			}
			e.nbuf = append(e.nbuf[:0], e.g.Neighbors(v)...)
			for _, old := range e.nbuf {
				consider(candidate{kind: SwapKind, u: v, v: old, w: u})
			}
		}
	}
	return best, found
}

// commit applies c for real (every row repaired) and boxes it for the
// history — the only move.Move allocation a step performs.
func (e *engine) commit(c candidate) move.Move {
	e.apply(c, nil)
	switch c.kind {
	case RemoveKind:
		return move.Remove{U: c.u, V: c.v}
	case AddKind:
		return move.Add{U: c.u, V: c.v}
	default:
		return move.Swap{U: c.u, Old: c.v, New: c.w}
	}
}
