package graph

// IncDist maintains all-pairs shortest-path distances of a Graph under
// single edge toggles. It is the hot core of the large-n dynamics engine:
// an improving-response probe toggles an edge or two, reads a handful of
// agent costs, and is undone — recomputing n BFS trees per probe (what the
// evaluator does) throws the bitset kernel's speed away. IncDist instead
// repairs only the part of each BFS tree the toggle actually dirtied.
//
// Per source s it keeps the distance row dist[s][·] plus two aggregates —
// the finite-distance sum and the unreachable count — which are exactly
// the ingredients of game.Cost, so agent costs read in O(1) (SUM variant)
// or one row scan (MAX variant).
//
// Repair strategy, per row:
//
//   - Edge added (u,v): if the edge closes a shortcut (|d(u)−d(v)| ≥ 2, or
//     it reaches an unreachable vertex), run a partial BFS outward from the
//     improved endpoint, pruning at vertices that do not improve.
//   - Edge removed (u,v): Ramalingam–Reps. If the edge joined equal levels
//     or the far endpoint keeps another support neighbor one level down,
//     nothing changes. Otherwise discover the affected set in old-level
//     order (a vertex is affected iff it has no unaffected neighbor one
//     level down), then recompute it with a bucket-queue unit-weight
//     Dijkstra seeded from the unaffected boundary; vertices never
//     finalized became unreachable.
//
// If the affected set of a removal outgrows Threshold the row falls back
// to one fresh BFSScratchInto — bounded worst case, incremental common
// case. Stats() reports the repair/fallback split.
//
// Probes. Probe(rows) opens a probe on at most two rows: it saves them and
// their aggregates into a preallocated journal. While the probe is open,
// AddEdge and RemoveEdge repair only those rows and record each toggle;
// every other row is stale and must not be read. Rollback() undoes the
// recorded toggles on the graph in reverse order and copies the saved rows
// back, so undoing a probe costs two row copies, not an inverse repair.
type IncDist struct {
	g *Graph
	n int

	back    []int32   // n×n distance backing array
	rows    [][]int32 // rows[s][v] = d_G(s,v), incNoDist when unreachable
	sum     []int64   // per-source finite-distance sum
	unreach []int32   // per-source unreachable count

	threshold int // removal affected-set size that triggers a full-row fallback

	// scratch, reused across repairs
	queue    []int32   // partial-BFS FIFO (additions)
	buckets  [][]int32 // level buckets shared by both removal phases
	pending  []bool    // phase-1 queue membership
	aff      []bool    // affected marks
	done     []bool    // phase-2 finalized marks
	newd     []int32   // phase-2 tentative distances
	affList  []int32   // affected vertices, discovery order
	dscratch []int     // BFSScratchInto target for fallbacks
	bfs      BFSScratch

	// probe journal (Probe/Rollback)
	all      []int // 0..n-1: the rows a toggle repairs outside a probe
	active   []int // the rows the next toggle repairs: all, or the probed rows
	probing  bool
	probeBuf [2]int
	saved    []int32  // 2×n: the probed rows as Probe found them, back to back
	savedSum [2]int64 // their finite-distance sums
	savedUn  [2]int32 // their unreachable counts
	toggles  []Edge   // edges toggled while the probe is open, in order

	stats IncStats
}

// IncStats counts how often removal repairs stayed incremental.
type IncStats struct {
	Repairs   uint64 // rows repaired incrementally
	Fallbacks uint64 // rows recomputed from scratch (affected set over budget)
}

const incNoDist = int32(Unreachable)

// NewIncDist computes full APSP state for g (n BFS passes) and returns a
// kernel tracking it. The graph must only be mutated through the returned
// IncDist from here on.
func NewIncDist(g *Graph) *IncDist {
	n := g.N()
	d := &IncDist{
		g:         g,
		n:         n,
		threshold: n/4 + 8,
		back:      make([]int32, n*n),
		rows:      make([][]int32, n),
		sum:       make([]int64, n),
		unreach:   make([]int32, n),
		queue:     make([]int32, 0, n),
		buckets:   make([][]int32, n+2),
		pending:   make([]bool, n),
		aff:       make([]bool, n),
		done:      make([]bool, n),
		newd:      make([]int32, n),
		affList:   make([]int32, 0, n),
		dscratch:  make([]int, n),
		all:       make([]int, n),
		saved:     make([]int32, 2*n),
		toggles:   make([]Edge, 0, 4),
	}
	d.active = d.all
	for s := 0; s < n; s++ {
		d.all[s] = s
		d.rows[s] = d.back[s*n : (s+1)*n : (s+1)*n]
		d.recomputeRow(s)
	}
	d.stats = IncStats{} // init passes are not fallbacks
	return d
}

// Graph returns the tracked graph. Callers must not mutate it directly.
func (d *IncDist) Graph() *Graph { return d.g }

// N returns the number of vertices.
func (d *IncDist) N() int { return d.n }

// Dist returns d(u,v), or Unreachable.
func (d *IncDist) Dist(u, v int) int { return int(d.rows[u][v]) }

// Row returns the live distance row of s. Read-only, invalidated by the
// next mutation.
func (d *IncDist) Row(s int) []int32 { return d.rows[s] }

// SumDist returns the sum of finite distances from s.
func (d *IncDist) SumDist(s int) int64 { return d.sum[s] }

// UnreachableFrom returns how many vertices s cannot reach.
func (d *IncDist) UnreachableFrom(s int) int { return int(d.unreach[s]) }

// MaxDist returns the maximum finite distance from s (the eccentricity on
// the reachable part; 0 for an isolated vertex).
func (d *IncDist) MaxDist(s int) int64 {
	var m int32
	for _, dv := range d.rows[s] {
		if dv > m {
			m = dv
		}
	}
	return int64(m)
}

// Connected reports whether the graph is connected (vacuously true for n=0).
func (d *IncDist) Connected() bool { return d.n == 0 || d.unreach[0] == 0 }

// Stats returns repair/fallback counters since construction.
func (d *IncDist) Stats() IncStats { return d.stats }

// SetThreshold overrides the affected-set budget above which a removal
// repair falls back to a fresh BFS for that row. Tests use it to force
// both paths; 0 restores the default.
func (d *IncDist) SetThreshold(t int) {
	if t <= 0 {
		t = d.n/4 + 8
	}
	d.threshold = t
}

// AddEdge inserts (u,v) and repairs every row, or only the probed rows
// while a probe is open. Reports whether the edge was absent.
func (d *IncDist) AddEdge(u, v int) bool {
	if !d.g.AddEdge(u, v) {
		return false
	}
	d.journal(u, v)
	for _, s := range d.active {
		d.addRepair(s, u, v)
	}
	return true
}

// RemoveEdge deletes (u,v) and repairs every row, or only the probed rows
// while a probe is open. Reports whether the edge was present.
func (d *IncDist) RemoveEdge(u, v int) bool {
	if !d.g.RemoveEdge(u, v) {
		return false
	}
	d.journal(u, v)
	for _, s := range d.active {
		d.removeRepair(s, u, v)
	}
	return true
}

// journal records a toggle of (u,v) for Rollback while a probe is open.
func (d *IncDist) journal(u, v int) {
	if d.probing {
		d.toggles = append(d.toggles, Edge{U: u, V: v})
	}
}

// Probe opens a probe on rows: at most two, distinct. Until Rollback, edge
// toggles repair only these rows, and only these rows may be read. It
// panics if a probe is already open.
func (d *IncDist) Probe(rows []int) {
	if d.probing {
		panic("graph: IncDist.Probe with a probe already open")
	}
	if len(rows) > len(d.probeBuf) {
		panic("graph: IncDist.Probe on more than two rows")
	}
	d.active = d.probeBuf[:copy(d.probeBuf[:], rows)]
	for i, s := range d.active {
		copy(d.saved[i*d.n:(i+1)*d.n], d.rows[s])
		d.savedSum[i], d.savedUn[i] = d.sum[s], d.unreach[s]
	}
	d.probing = true
}

// Rollback closes the open probe: it undoes the probe's edge toggles in
// reverse order and restores the saved rows, leaving the graph and every
// row exactly as Probe found them. It panics if no probe is open.
func (d *IncDist) Rollback() {
	if !d.probing {
		panic("graph: IncDist.Rollback without an open probe")
	}
	for i := len(d.toggles) - 1; i >= 0; i-- {
		// Toggling a journaled edge once more undoes that toggle.
		e := d.toggles[i]
		if !d.g.RemoveEdge(e.U, e.V) {
			d.g.AddEdge(e.U, e.V)
		}
	}
	d.toggles = d.toggles[:0]
	for i, s := range d.active {
		copy(d.rows[s], d.saved[i*d.n:(i+1)*d.n])
		d.sum[s], d.unreach[s] = d.savedSum[i], d.savedUn[i]
	}
	d.active = d.all
	d.probing = false
}

// recomputeRow refreshes row s and its aggregates with one fresh BFS.
func (d *IncDist) recomputeRow(s int) {
	d.g.BFSScratchInto(s, d.dscratch, &d.bfs)
	row := d.rows[s]
	var sum int64
	var un int32
	for v, dv := range d.dscratch {
		row[v] = int32(dv)
		if dv == Unreachable {
			un++
		} else {
			sum += int64(dv)
		}
	}
	d.sum[s] = sum
	d.unreach[s] = un
	d.stats.Fallbacks++
}

// setDist writes row[v] = nd keeping the aggregates in sync. nd must be
// finite; unreachability is only ever introduced by the removal epilogue.
func (d *IncDist) setDist(s, v int, nd int32) {
	row := d.rows[s]
	if old := row[v]; old == incNoDist {
		d.unreach[s]--
		d.sum[s] += int64(nd)
	} else {
		d.sum[s] += int64(nd - old)
	}
	row[v] = nd
}

// addRepair fixes row s after (u,v) was inserted into the graph.
func (d *IncDist) addRepair(s, u, v int) {
	row := d.rows[s]
	du, dv := row[u], row[v]
	// Orient so du ≤ dv, treating incNoDist as +inf.
	if dv != incNoDist && (du == incNoDist || dv < du) {
		v, du, dv = u, dv, du
	}
	if du == incNoDist {
		return // both endpoints beyond s's component: still unreachable
	}
	if dv != incNoDist && dv <= du+1 {
		return // no shortcut: the edge spans adjacent or equal levels
	}
	// v drops to du+1; grow the improvement wave outward, pruning at
	// vertices the wave does not improve.
	d.setDist(s, v, du+1)
	q := append(d.queue[:0], int32(v))
	for head := 0; head < len(q); head++ {
		x := int(q[head])
		cand := row[x] + 1
		for _, y := range d.g.neigh[x] {
			if dy := row[y]; dy == incNoDist || dy > cand {
				d.setDist(s, y, cand)
				q = append(q, int32(y))
			}
		}
	}
	d.queue = q[:0]
	d.stats.Repairs++
}

// hasSupport reports whether x has an unaffected neighbor at level lvl in
// row s — a parent that still certifies x's current distance.
func (d *IncDist) hasSupport(s, x int, lvl int32) bool {
	row := d.rows[s]
	for _, y := range d.g.neigh[x] {
		if row[y] == lvl && !d.aff[y] {
			return true
		}
	}
	return false
}

// removeRepair fixes row s after (u,v) was deleted from the graph.
func (d *IncDist) removeRepair(s, u, v int) {
	row := d.rows[s]
	du, dv := row[u], row[v]
	if du == incNoDist {
		return // the edge lived entirely outside s's component
	}
	if du == dv {
		return // equal levels: the edge was on no shortest path from s
	}
	w := u
	if dv > du {
		w = v
	}
	dw := row[w]
	if d.hasSupport(s, w, dw-1) {
		d.stats.Repairs++
		return // w keeps a parent: no distance changes anywhere
	}
	d.cascade(s, w, dw)
}

// bucketPush appends x to the level bucket l.
func (d *IncDist) bucketPush(l int32, x int32) {
	d.buckets[l] = append(d.buckets[l], x)
}

// cascade runs the two Ramalingam–Reps phases for row s after w (old level
// dw) lost its last support parent.
func (d *IncDist) cascade(s, w int, dw int32) {
	row := d.rows[s]
	g := d.g

	// Phase 1: discover the affected set in old-level order. buckets[l]
	// holds candidates whose old level is l; a candidate is affected iff
	// it has no unaffected neighbor one level down, and an affected vertex
	// recruits its neighbors one level up. Level-l verdicts are final
	// before level l+1 is examined, so one pass suffices.
	d.affList = d.affList[:0]
	d.bucketPush(dw, int32(w))
	d.pending[w] = true
	queued := 1
	maxL := dw
	overBudget := false
phase1:
	for l := dw; queued > 0 && int(l) < len(d.buckets); l++ {
		bkt := d.buckets[l]
		for i := 0; i < len(bkt); i++ {
			x := int(bkt[i])
			queued--
			d.pending[x] = false
			if d.hasSupport(s, x, l-1) {
				continue
			}
			d.aff[x] = true
			d.affList = append(d.affList, int32(x))
			if len(d.affList) > d.threshold {
				overBudget = true
				break phase1
			}
			next := l + 1
			for _, y := range g.neigh[x] {
				if row[y] == next && !d.aff[y] && !d.pending[y] {
					d.pending[y] = true
					d.bucketPush(next, int32(y))
					queued++
					if next > maxL {
						maxL = next
					}
				}
			}
		}
		d.buckets[l] = bkt[:0]
	}
	if overBudget {
		// Clear every mark the aborted discovery left behind, then give
		// the row one fresh BFS.
		for l := dw; l <= maxL; l++ {
			for _, x := range d.buckets[l] {
				d.pending[x] = false
			}
			d.buckets[l] = d.buckets[l][:0]
		}
		for _, x := range d.affList {
			d.aff[x] = false
		}
		d.affList = d.affList[:0]
		d.recomputeRow(s)
		return
	}

	// Phase 2: bucket-queue unit-weight Dijkstra over the affected set,
	// seeded from the unaffected boundary (whose distances are final).
	inf := int32(d.n)
	queued = 0
	minL := inf
	for _, xi := range d.affList {
		x := int(xi)
		best := inf
		for _, y := range g.neigh[x] {
			if !d.aff[y] && row[y] != incNoDist && row[y]+1 < best {
				best = row[y] + 1
			}
		}
		d.newd[x] = best
		if best < inf {
			d.bucketPush(best, xi)
			queued++
			if best < minL {
				minL = best
			}
		}
	}
	for l := minL; queued > 0 && int(l) < len(d.buckets); l++ {
		bkt := d.buckets[l]
		for i := 0; i < len(bkt); i++ {
			x := int(bkt[i])
			queued--
			if d.done[x] || d.newd[x] != l {
				continue // stale entry: x settled at a smaller level
			}
			d.done[x] = true
			d.setDist(s, x, l)
			cand := l + 1
			for _, y := range g.neigh[x] {
				if d.aff[y] && !d.done[y] && cand < d.newd[y] {
					d.newd[y] = cand
					d.bucketPush(cand, int32(y))
					queued++
				}
			}
		}
		d.buckets[l] = bkt[:0]
	}
	// Never-finalized affected vertices fell off s's component.
	for _, xi := range d.affList {
		x := int(xi)
		if !d.done[x] {
			d.sum[s] -= int64(row[x])
			d.unreach[s]++
			row[x] = incNoDist
		}
		d.aff[x] = false
		d.done[x] = false
	}
	d.affList = d.affList[:0]
	d.stats.Repairs++
}
