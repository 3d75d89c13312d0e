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
// through an IncDist kernel. An Add probe never mutates anything: both
// endpoints' new costs follow from their two current distance rows
// (IncDist.AddedStats). A Remove or Swap probe opens a kernel probe on the
// actors' rows, applies the move (only those rows are repaired), reads
// their costs off the kernel's aggregates, and rolls back, which restores
// the saved rows instead of repairing them again — no evaluator re-bind,
// no fresh BFS. A committed move repairs every row. The pair pool and the
// shuffle's reciprocal table are allocated once per run.
type engine struct {
	gm    game.Game
	g     *graph.Graph
	inc   *graph.IncDist
	sched Scheduler

	// order is the pair pool: every u<v pair packed as u<<16|v (n ≤ 2¹⁶,
	// far past what n×n distance rows allow). The round-robin and
	// breakpoint schedulers scan it in its initial lexicographic order;
	// the uniform scheduler reshuffles it in place before every scan.
	order  []uint32
	draws  intnTable // draws[i] serves rng.Intn(i+1) in the shuffle
	cursor int       // round-robin resume position

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
		order:   make([]uint32, 0, n*(n-1)/2),
		hetero:  len(gm.Variant.Prices) > 0,
		maxDist: gm.Variant.Dist == game.DistMax,
		alphaF:  gm.Alpha.Float(),
		nbuf:    make([]int, 0, n),
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			e.order = append(e.order, uint32(u)<<16|uint32(v))
		}
	}
	if e.sched == SchedulerUniform {
		e.draws = newIntnTable(len(e.order))
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

// addedCosts returns the costs u and v would have after buying (u,v),
// read off their two current rows without touching the graph.
func (e *engine) addedCosts(u, v int) (cu, cv game.Cost) {
	su, sv := e.inc.AddedStats(u, v)
	cu = game.Cost{Unreachable: su.Unreach, Buy: int64(e.g.Degree(u)) + 1, Dist: su.Sum}
	cv = game.Cost{Unreachable: sv.Unreach, Buy: int64(e.g.Degree(v)) + 1, Dist: sv.Sum}
	if e.maxDist {
		cu.Dist, cv.Dist = su.Max, sv.Max
	}
	return cu, cv
}

// apply performs the candidate's edge toggles. Inside a kernel probe only
// the probed rows are repaired; otherwise (commit) every row is.
func (e *engine) apply(c candidate) {
	switch c.kind {
	case RemoveKind:
		e.inc.RemoveEdge(c.u, c.v)
	case AddKind:
		e.inc.AddEdge(c.u, c.v)
	case SwapKind:
		e.inc.RemoveEdge(c.u, c.v)
		e.inc.AddEdge(c.u, c.w)
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

// moveCosts returns c's actors with their costs before and after the move.
// An Add is read off the endpoints' two rows; a Remove or Swap is applied
// inside a kernel probe and rolled back, so the graph and kernel are
// unchanged when it returns.
func (e *engine) moveCosts(c candidate) (rows []int, before, after [2]game.Cost) {
	rows = e.actors(c)
	for i, a := range rows {
		before[i] = e.cost(a)
	}
	if c.kind == AddKind {
		after[0], after[1] = e.addedCosts(c.u, c.v)
		return rows, before, after
	}
	e.inc.Probe(rows)
	e.apply(c)
	for i, a := range rows {
		after[i] = e.cost(a)
	}
	e.inc.Rollback()
	return rows, before, after
}

// probe reports whether c strictly improves all its actors, by eq's
// checker rule: strict lexicographic improvement at each actor's
// effective price.
func (e *engine) probe(c candidate) bool {
	rows, before, after := e.moveCosts(c)
	for i, a := range rows {
		if !e.gm.LessFor(a, after[i], before[i]) {
			return false
		}
	}
	return true
}

// probeMargin is probe for the breakpoint scheduler: when c improves, it
// also returns how far α sits from the nearest breakpoint of the move's
// exact improving interval (the minimum over actors; +Inf when the move
// improves at every price).
func (e *engine) probeMargin(c candidate) (float64, bool) {
	rows, before, after := e.moveCosts(c)
	margin := math.Inf(1)
	for i, a := range rows {
		m, ok := e.actorMargin(a, before[i], after[i])
		if !ok {
			return 0, false
		}
		margin = min(margin, m)
	}
	return margin, true
}

// actorMargin computes agent a's exact improving interval from its costs
// before and after the move via the certificate arithmetic, and returns
// α's distance to its boundary.
func (e *engine) actorMargin(a int, before, after game.Cost) (float64, bool) {
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

// unpack returns the two ends of a packed pool pair.
func unpack(p uint32) (u, v int) { return int(p >> 16), int(p & 0xffff) }

// tryPair probes every allowed candidate over the pair (u,v) in a fixed
// order and returns the first improving one.
func (e *engine) tryPair(p uint32) (candidate, bool) {
	u, v := unpack(p)
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
	e.shuffle(rng)
	for _, p := range e.order {
		if c, ok := e.tryPair(p); ok {
			return c, true
		}
	}
	return candidate{}, false
}

// shuffle is a Fisher–Yates pass over the scan permutation. Each draw is
// exactly rng.Intn(i+1), taken without its divisions.
func (e *engine) shuffle(rng *rand.Rand) {
	ord := e.order
	for i := len(ord) - 1; i > 0; i-- {
		j := e.draws.intn(rng, i)
		ord[i], ord[j] = ord[j], ord[i]
	}
}

// findRoundRobin scans the cyclic pair order starting where the previous
// improving move was found (the same pair may improve again).
func (e *engine) findRoundRobin() (candidate, bool) {
	n := len(e.order)
	for k := 0; k < n; k++ {
		idx := e.cursor + k
		if idx >= n {
			idx -= n
		}
		if c, ok := e.tryPair(e.order[idx]); ok {
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
	for _, p := range e.order {
		u, v := unpack(p)
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
	e.apply(c)
	switch c.kind {
	case RemoveKind:
		return move.Remove{U: c.u, V: c.v}
	case AddKind:
		return move.Add{U: c.u, V: c.v}
	default:
		return move.Swap{U: c.u, Old: c.v, New: c.w}
	}
}
