package graph

// Unreachable is the distance reported for node pairs in different connected
// components. Callers in the game layer translate it into the paper's
// lexicographic "M" semantics; it is negative so that accidentally summing
// it with real distances fails loudly in tests.
const Unreachable = -1

// BFS returns the distance from src to every node, with Unreachable for
// nodes in other components.
func (g *Graph) BFS(src int) []int {
	dist := make([]int, g.n)
	g.bfsList(src, dist, nil)
	return dist
}

// bfsList is the neighbor-list queue BFS behind BFS, BFSInto and
// BFSScratchInto: it fills dist with hop distances from src, Unreachable
// for other components. It reuses queue's capacity when it holds n nodes,
// allocates a queue otherwise, and returns the queue for reuse.
func (g *Graph) bfsList(src int, dist, queue []int) []int {
	for i := range dist {
		dist[i] = Unreachable
	}
	dist[src] = 0
	if cap(queue) < g.n {
		queue = make([]int, 0, g.n)
	}
	queue = append(queue[:0], src)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.neigh[u] {
			if dist[v] == Unreachable {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return queue[:0]
}

// BFSInto is BFS writing into a caller-provided slice of length n, avoiding
// allocation in hot loops (equilibrium checkers evaluate millions of moves).
// Graphs on up to 64 nodes run the single-word bitset kernel and allocate
// nothing; larger graphs needing allocation-free traversal should use
// BFSScratchInto.
func (g *Graph) BFSInto(src int, dist []int) {
	if g.bits != nil && g.words == 1 {
		BFSRows(g.bits, 1, src, dist, nil)
		return
	}
	g.bfsList(src, dist, nil)
}

// Dist returns the hop distance between u and v, or Unreachable.
func (g *Graph) Dist(u, v int) int {
	if u == v {
		return 0
	}
	return g.BFS(u)[v]
}

// AllPairs returns the full distance matrix (Unreachable off-component).
func (g *Graph) AllPairs() [][]int {
	d := make([][]int, g.n)
	for u := 0; u < g.n; u++ {
		d[u] = g.BFS(u)
	}
	return d
}

// Connected reports whether the graph is connected. The empty graph and the
// single-node graph are connected. Graphs on up to 64 nodes answer with the
// word-at-a-time reach closure and allocate nothing.
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	if g.bits != nil && g.words == 1 {
		return connectedRows(g.bits, g.n)
	}
	dist := g.BFS(0)
	for _, d := range dist {
		if d == Unreachable {
			return false
		}
	}
	return true
}

// Components returns the connected components as sorted node slices, ordered
// by their smallest node.
func (g *Graph) Components() [][]int {
	seen := make([]bool, g.n)
	var comps [][]int
	for s := 0; s < g.n; s++ {
		if seen[s] {
			continue
		}
		var comp []int
		stack := []int{s}
		seen[s] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			for _, v := range g.neigh[u] {
				if !seen[v] {
					seen[v] = true
					stack = append(stack, v)
				}
			}
		}
		sortInts(comp)
		comps = append(comps, comp)
	}
	return comps
}

// Eccentricity returns the maximum finite distance from u, or Unreachable if
// some node cannot be reached.
func (g *Graph) Eccentricity(u int) int {
	ecc := 0
	for _, d := range g.BFS(u) {
		if d == Unreachable {
			return Unreachable
		}
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// Diameter returns the maximum eccentricity, or Unreachable for
// disconnected graphs.
func (g *Graph) Diameter() int {
	diam := 0
	for u := 0; u < g.n; u++ {
		e := g.Eccentricity(u)
		if e == Unreachable {
			return Unreachable
		}
		if e > diam {
			diam = e
		}
	}
	return diam
}

// TotalDist returns the sum of distances from u to all reachable nodes and
// the count of unreachable nodes. This is the dist(u) of the paper split
// into its finite part and the part the paper prices at M.
func (g *Graph) TotalDist(u int) (sum int64, unreachable int) {
	for _, d := range g.BFS(u) {
		if d == Unreachable {
			unreachable++
			continue
		}
		sum += int64(d)
	}
	return sum, unreachable
}

// IsTree reports whether g is connected with exactly n-1 edges.
func (g *Graph) IsTree() bool {
	return g.n > 0 && g.m == g.n-1 && g.Connected()
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
