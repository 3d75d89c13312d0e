package graph

import (
	"math/rand"
	"testing"
)

// referenceBFS is the neighbor-list queue kernel, kept as the differential
// reference for the bitset kernels.
func referenceBFS(g *Graph, src int) []int {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = Unreachable
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.neigh[u] {
			if dist[v] == Unreachable {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// TestBitsetMirrorsNeighborLists checks that every edge mutation keeps the
// bitset rows in lockstep with the sorted neighbor lists.
func TestBitsetMirrorsNeighborLists(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := New(20)
	check := func() {
		t.Helper()
		for u := 0; u < g.n; u++ {
			for v := 0; v < g.n; v++ {
				inBits := g.bits[u*g.words+v>>6]&(1<<uint(v&63)) != 0
				inList := false
				for _, w := range g.neigh[u] {
					if w == v {
						inList = true
					}
				}
				if inBits != inList {
					t.Fatalf("edge %d-%d: bitset=%v list=%v", u, v, inBits, inList)
				}
			}
		}
	}
	for i := 0; i < 500; i++ {
		u, v := rng.Intn(g.n), rng.Intn(g.n)
		if rng.Intn(2) == 0 {
			g.AddEdge(u, v)
		} else {
			g.RemoveEdge(u, v)
		}
	}
	check()
	c := g.Clone()
	if !c.Equal(g) || !c.HasBitset() {
		t.Fatal("clone lost edges or bitset")
	}
	c.AddEdge(0, 1)
	c.RemoveEdge(0, 1) // mutate the clone; the original must be unaffected
	check()
}

// TestBFSKernelsAgreeExhaustive runs the bitset BFS against the
// neighbor-list reference on every graph (connected and disconnected) up to
// n=5 and every connected class up to n=7, from every source node.
func TestBFSKernelsAgreeExhaustive(t *testing.T) {
	checkGraph := func(g *Graph) {
		t.Helper()
		var s BFSScratch
		dist := make([]int, g.n)
		dist2 := make([]int, g.n)
		for src := 0; src < g.n; src++ {
			want := referenceBFS(g, src)
			g.BFSInto(src, dist)
			g.BFSScratchInto(src, dist2, &s)
			for v := range want {
				if dist[v] != want[v] || dist2[v] != want[v] {
					t.Fatalf("%s src=%d v=%d: BFSInto=%d scratch=%d want %d",
						g, src, v, dist[v], dist2[v], want[v])
				}
			}
		}
		if wantConn := len(g.Components()) <= 1; g.Connected() != wantConn {
			t.Fatalf("%s: Connected()=%v want %v", g, g.Connected(), wantConn)
		}
	}
	for n := 1; n <= 5; n++ {
		for g := range All(n, EnumOptions{MaxEdges: -1}) {
			checkGraph(g)
		}
	}
	for n := 6; n <= 7; n++ {
		for g := range All(n, EnumOptions{ConnectedOnly: true, UpToIso: true, MaxEdges: -1}) {
			checkGraph(g)
		}
	}
}

// TestBFSKernelsAgreeMultiWord covers the 64 < n <= MaxBitsetNodes rows and
// the n > MaxBitsetNodes fallback on random graphs.
func TestBFSKernelsAgreeMultiWord(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{65, 130, MaxBitsetNodes, MaxBitsetNodes + 1} {
		g := New(n)
		if (n <= MaxBitsetNodes) != g.HasBitset() {
			t.Fatalf("n=%d: HasBitset=%v", n, g.HasBitset())
		}
		for i := 0; i < 3*n; i++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		var s BFSScratch
		dist := make([]int, n)
		for _, src := range []int{0, 1, n / 2, n - 1} {
			want := referenceBFS(g, src)
			g.BFSScratchInto(src, dist, &s)
			for v := range want {
				if dist[v] != want[v] {
					t.Fatalf("n=%d src=%d v=%d: scratch=%d want %d", n, src, v, dist[v], want[v])
				}
			}
		}
	}
}

// TestBFSScratchIntoAllocFree pins the zero-allocation property of the
// scratch kernel at sweep sizes after warmup.
func TestBFSScratchIntoAllocFree(t *testing.T) {
	g := MustFromEdges(8, []Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4},
		{U: 4, V: 5}, {U: 5, V: 6}, {U: 6, V: 7}, {U: 7, V: 0}, {U: 0, V: 4},
	})
	var s BFSScratch
	dist := make([]int, g.N())
	g.BFSScratchInto(0, dist, &s)
	if allocs := testing.AllocsPerRun(100, func() {
		for src := 0; src < g.N(); src++ {
			g.BFSScratchInto(src, dist, &s)
		}
	}); allocs != 0 {
		t.Errorf("BFSScratchInto allocates %v times per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		g.Connected()
		g.BFSInto(0, dist)
	}); allocs != 0 {
		t.Errorf("single-word Connected/BFSInto allocate %v times per run, want 0", allocs)
	}
}
