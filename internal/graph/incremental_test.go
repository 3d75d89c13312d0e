package graph

import (
	"math/rand"
	"testing"
)

// checkAgainstBFS pins every IncDist row, aggregate, and derived quantity
// to a fresh BFS of the same graph.
func checkAgainstBFS(t *testing.T, d *IncDist, ctxt string) {
	t.Helper()
	g := d.Graph()
	n := g.N()
	dist := make([]int, n)
	var bfs BFSScratch
	for s := 0; s < n; s++ {
		g.BFSScratchInto(s, dist, &bfs)
		var sum int64
		var un int
		var max int64
		for v, dv := range dist {
			if got := d.Dist(s, v); got != dv {
				t.Fatalf("%s: dist(%d,%d) = %d, want %d", ctxt, s, v, got, dv)
			}
			if dv == Unreachable {
				un++
				continue
			}
			sum += int64(dv)
			if int64(dv) > max {
				max = int64(dv)
			}
		}
		if d.SumDist(s) != sum {
			t.Fatalf("%s: SumDist(%d) = %d, want %d", ctxt, s, d.SumDist(s), sum)
		}
		if d.UnreachableFrom(s) != un {
			t.Fatalf("%s: UnreachableFrom(%d) = %d, want %d", ctxt, s, d.UnreachableFrom(s), un)
		}
		if d.MaxDist(s) != max {
			t.Fatalf("%s: MaxDist(%d) = %d, want %d", ctxt, s, d.MaxDist(s), max)
		}
	}
	if d.Connected() != g.Connected() {
		t.Fatalf("%s: Connected() = %v, want %v", ctxt, d.Connected(), g.Connected())
	}
}

// TestIncDistTable drives hand-picked toggle sequences through the repair
// paths that matter: shortcut adds, bridge removals (vertices become
// unreachable), no-op removals off shortest paths, and re-adds.
func TestIncDistTable(t *testing.T) {
	type toggle struct {
		add  bool
		u, v int
	}
	cases := []struct {
		name    string
		n       int
		edges   []Edge
		toggles []toggle
	}{
		{
			name:  "path shortcut then bridge cut",
			n:     6,
			edges: []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}},
			toggles: []toggle{
				{true, 0, 5},  // close the cycle: big shortcut both directions
				{false, 2, 3}, // still connected via the chord
				{false, 0, 5}, // now 0..2 and 3..5 split
				{true, 2, 3},  // rejoin
			},
		},
		{
			name:  "star loses and regains a leaf",
			n:     5,
			edges: []Edge{{0, 1}, {0, 2}, {0, 3}, {0, 4}},
			toggles: []toggle{
				{false, 0, 4}, // leaf 4 unreachable from everyone
				{true, 1, 4},  // re-attached one level deeper
				{true, 0, 4},  // back to distance 1
				{false, 1, 4},
			},
		},
		{
			name:  "equal-level edge is distance-neutral",
			n:     4,
			edges: []Edge{{0, 1}, {0, 2}, {1, 3}, {2, 3}},
			toggles: []toggle{
				{false, 1, 3}, // 3 keeps support via 2
				{true, 1, 3},
				{false, 2, 3},
			},
		},
		{
			name:  "isolated vertices join late",
			n:     5,
			edges: []Edge{{0, 1}},
			toggles: []toggle{
				{true, 2, 3},
				{true, 1, 2}, // merges two components
				{true, 3, 4},
				{false, 1, 2}, // splits them again
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := FromEdges(tc.n, tc.edges)
			if err != nil {
				t.Fatal(err)
			}
			d := NewIncDist(g)
			checkAgainstBFS(t, d, "init")
			for i, tg := range tc.toggles {
				var ok bool
				if tg.add {
					ok = d.AddEdge(tg.u, tg.v)
				} else {
					ok = d.RemoveEdge(tg.u, tg.v)
				}
				if !ok {
					t.Fatalf("toggle %d (%+v) was a no-op", i, tg)
				}
				checkAgainstBFS(t, d, tc.name)
			}
		})
	}
}

// TestIncDistRandomToggles is the table test's randomized sibling: long
// uniform toggle sequences over several sizes, verified after every step,
// at both the default threshold and a threshold of 1 (forcing the
// full-recompute fallback on every cascade). n = 200 is simulate's size
// (four-word rows). The summed repair and fallback counts are pinned per
// threshold: the repairs visit neighbors in ascending order, so any change
// to the kernel that alters which rows repair or fall back moves them.
func TestIncDistRandomToggles(t *testing.T) {
	want := map[int]IncStats{
		0: {Repairs: 7438, Fallbacks: 1},
		1: {Repairs: 7760, Fallbacks: 155},
	}
	for _, threshold := range []int{0, 1} {
		var total IncStats
		for _, n := range []int{2, 3, 7, 16, 33, 70, 200} {
			rng := rand.New(rand.NewSource(int64(100*n + threshold)))
			m := n
			if max := n * (n - 1) / 2; m > max {
				m = max
			}
			g, err := RandomGraph(n, m, rng)
			if err != nil {
				t.Fatal(err)
			}
			d := NewIncDist(g)
			d.SetThreshold(threshold)
			steps := 120
			if n > 30 {
				steps = 40
			}
			for i := 0; i < steps; i++ {
				u := rng.Intn(n)
				v := rng.Intn(n)
				if u == v {
					continue
				}
				if g.HasEdge(u, v) {
					d.RemoveEdge(u, v)
				} else {
					d.AddEdge(u, v)
				}
				checkAgainstBFS(t, d, "random")
			}
			total.Repairs += d.Stats().Repairs
			total.Fallbacks += d.Stats().Fallbacks
		}
		if threshold == 1 && total.Fallbacks == 0 {
			t.Fatal("threshold=1 never exercised the fallback path")
		}
		if total != want[threshold] {
			t.Errorf("threshold=%d: summed stats %+v, want %+v", threshold, total, want[threshold])
		}
	}
}

// TestIncDistProbeRollback pins the probe journal. While a probe is open
// the probed rows match a fresh BFS of the toggled graph; after Rollback
// every row, aggregate and the graph encoding equal the pre-probe state.
// Probes are add-, remove- and swap-shaped (a swap is two toggles in one
// probe), plus an add and remove of one edge, on bitset graphs and on one graph above MaxBitsetNodes (the
// neighbor-list path), at the default threshold and at 1, which forces
// fallbacks inside the probe. Committed toggles between probes move the
// base state.
func TestIncDistProbeRollback(t *testing.T) {
	type state struct {
		rows []int32
		sum  []int64
		un   []int
		enc  string
	}
	take := func(d *IncDist) state {
		n := d.N()
		st := state{rows: make([]int32, 0, n*n), enc: Encode(d.Graph())}
		for s := 0; s < n; s++ {
			st.rows = append(st.rows, d.Row(s)...)
			st.sum = append(st.sum, d.SumDist(s))
			st.un = append(st.un, d.UnreachableFrom(s))
		}
		return st
	}
	cases := []struct{ n, m, probes int }{
		{12, 14, 300},
		{40, 60, 200},
		{MaxBitsetNodes + 8, 700, 24},
	}
	for _, threshold := range []int{0, 1} {
		var probeFallbacks uint64
		for _, tc := range cases {
			n := tc.n
			rng := rand.New(rand.NewSource(int64(n*10 + threshold)))
			g, err := RandomGraph(n, tc.m, rng)
			if err != nil {
				t.Fatal(err)
			}
			d := NewIncDist(g)
			d.SetThreshold(threshold)
			base := take(d)
			dist := make([]int, n)
			var bfs BFSScratch
			for i := 0; i < tc.probes; i++ {
				u, v := rng.Intn(n), rng.Intn(n)
				if u == v {
					continue
				}
				if i%10 == 9 {
					// Commit: a full every-row repair moves the base state.
					if g.HasEdge(u, v) {
						d.RemoveEdge(u, v)
					} else {
						d.AddEdge(u, v)
					}
					if n <= 64 {
						checkAgainstBFS(t, d, "commit after probes")
					}
					base = take(d)
					continue
				}
				var rows []int
				var shape string
				fallbacks := d.Stats().Fallbacks
				switch {
				case g.HasEdge(u, v) && i%2 == 0:
					shape, rows = "remove", []int{u}
					d.Probe(rows)
					d.RemoveEdge(u, v)
				case g.HasEdge(u, v):
					w := rng.Intn(n)
					if w == u || g.HasEdge(u, w) {
						continue
					}
					shape, rows = "swap", []int{u, w}
					d.Probe(rows)
					d.RemoveEdge(u, v)
					d.AddEdge(u, w)
				case i%3 == 0:
					// The same edge toggled twice in one probe.
					shape, rows = "add-remove", []int{u, v}
					d.Probe(rows)
					d.AddEdge(u, v)
					d.RemoveEdge(u, v)
				default:
					shape, rows = "add", []int{u, v}
					d.Probe(rows)
					d.AddEdge(u, v)
				}
				for _, s := range rows {
					g.BFSScratchInto(s, dist, &bfs)
					for x, dx := range dist {
						if got := d.Dist(s, x); got != dx {
							t.Fatalf("n=%d threshold=%d probe %d (%s %d,%d): dist(%d,%d) = %d, want %d",
								n, threshold, i, shape, u, v, s, x, got, dx)
						}
					}
				}
				probeFallbacks += d.Stats().Fallbacks - fallbacks
				d.Rollback()
				after := take(d)
				if after.enc != base.enc {
					t.Fatalf("n=%d threshold=%d probe %d (%s): graph not restored", n, threshold, i, shape)
				}
				for k := range after.rows {
					if after.rows[k] != base.rows[k] {
						t.Fatalf("n=%d threshold=%d probe %d (%s): dist(%d,%d) = %d after rollback, want %d",
							n, threshold, i, shape, k/n, k%n, after.rows[k], base.rows[k])
					}
				}
				for s := 0; s < n; s++ {
					if after.sum[s] != base.sum[s] || after.un[s] != base.un[s] {
						t.Fatalf("n=%d threshold=%d probe %d (%s): row %d aggregates (%d,%d) after rollback, want (%d,%d)",
							n, threshold, i, shape, s, after.sum[s], after.un[s], base.sum[s], base.un[s])
					}
				}
			}
		}
		if threshold == 1 && probeFallbacks == 0 {
			t.Fatal("threshold=1 never fell back inside a probe")
		}
	}
}
