package graph

import "math/bits"

// MaxBitsetNodes bounds the node count up to which a Graph maintains a
// dense bitset mirror of its adjacency. Below the bound every graph carries
// []uint64 rows (bit v of row u set iff uv is an edge) kept in lockstep
// with the sorted neighbor lists, enabling word-at-a-time BFS frontiers and
// O(1) edge queries. Above it — the 10^5-node families of Section 3.3 —
// the mirror would cost Θ(n²/64) memory, so only the O(n+m) neighbor lists
// are kept and all traversals fall back to them.
const MaxBitsetNodes = 512

// bitWords returns the number of 64-bit words per adjacency row.
func bitWords(n int) int { return (n + 63) / 64 }

// initBits allocates the flat bitset rows. Called by the constructors;
// rows start all-zero (no edges).
func (g *Graph) initBits() {
	if g.n == 0 || g.n > MaxBitsetNodes {
		return
	}
	g.words = bitWords(g.n)
	g.bits = make([]uint64, g.n*g.words)
}

// HasBitset reports whether the graph maintains the dense bitset mirror
// (true exactly when N() <= MaxBitsetNodes and N() > 0).
func (g *Graph) HasBitset() bool { return g.bits != nil }

// BFSScratch holds the reusable buffers of BFSScratchInto, so hot loops
// (equilibrium checkers, sweeps) traverse without allocating. The zero
// value is ready to use; buffers grow to the largest graph seen and are
// then reused. A BFSScratch must not be shared between goroutines.
type BFSScratch struct {
	frontier, next, visited []uint64
	queue                   []int
}

// grow resizes a scratch word slice to length w, reusing capacity.
func growWords(s []uint64, w int) []uint64 {
	if cap(s) < w {
		return make([]uint64, w)
	}
	return s[:w]
}

// BFSScratchInto is BFSInto with caller-owned scratch: it fills dist (length
// n) with hop distances from src, Unreachable for other components, using
// the bitset kernel when the graph maintains one and allocating nothing once
// the scratch has warmed up to the graph size.
func (g *Graph) BFSScratchInto(src int, dist []int, s *BFSScratch) {
	if g.bits != nil {
		BFSRows(g.bits, g.words, src, dist, s)
		return
	}
	// Neighbor-list fallback for graphs above MaxBitsetNodes, reusing the
	// scratch queue.
	s.queue = g.bfsList(src, dist, s.queue)
}

// BFSRows is the bitset BFS kernel, shared by Graph and by callers that
// keep their own adjacency (the equilibrium scans). rows holds the
// adjacency of a graph on len(dist) nodes as flat rows of w uint64 words:
// row u is rows[u*w:(u+1)*w], with bit v set iff uv is an edge. It fills
// dist with hop distances from src, Unreachable for other components, and
// allocates nothing once s has warmed up to w words.
//
// With one word per row (n <= 64) the frontier, the visited set and every
// row are a single uint64, so each level is a handful of OR/ANDN word
// operations plus TrailingZeros64 iteration over the newly reached nodes,
// and s is not touched (it may be nil). Wider rows keep their frontiers in
// s.
func BFSRows(rows []uint64, w, src int, dist []int, s *BFSScratch) {
	for i := range dist {
		dist[i] = Unreachable
	}
	dist[src] = 0
	if w == 1 {
		visited := uint64(1) << uint(src)
		frontier := visited
		d := 0
		for frontier != 0 {
			var next uint64
			for f := frontier; f != 0; f &= f - 1 {
				next |= rows[bits.TrailingZeros64(f)]
			}
			next &^= visited
			d++
			for t := next; t != 0; t &= t - 1 {
				dist[bits.TrailingZeros64(t)] = d
			}
			visited |= next
			frontier = next
		}
		return
	}
	s.frontier = growWords(s.frontier, w)
	s.next = growWords(s.next, w)
	s.visited = growWords(s.visited, w)
	for i := 0; i < w; i++ {
		s.frontier[i], s.visited[i] = 0, 0
	}
	s.frontier[src>>6] = 1 << uint(src&63)
	s.visited[src>>6] = s.frontier[src>>6]
	d := 0
	for {
		for i := 0; i < w; i++ {
			s.next[i] = 0
		}
		for wi := 0; wi < w; wi++ {
			for f := s.frontier[wi]; f != 0; f &= f - 1 {
				u := wi<<6 | bits.TrailingZeros64(f)
				row := rows[u*w : (u+1)*w]
				for i := 0; i < w; i++ {
					s.next[i] |= row[i]
				}
			}
		}
		d++
		any := false
		for i := 0; i < w; i++ {
			s.next[i] &^= s.visited[i]
			if s.next[i] != 0 {
				any = true
			}
			for t := s.next[i]; t != 0; t &= t - 1 {
				dist[i<<6|bits.TrailingZeros64(t)] = d
			}
			s.visited[i] |= s.next[i]
		}
		if !any {
			return
		}
		s.frontier, s.next = s.next, s.frontier
	}
}
