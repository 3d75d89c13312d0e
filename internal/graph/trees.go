package graph

import (
	"fmt"
	"iter"
	"sort"
	"strings"
)

// PruferDecode builds the labeled tree on n nodes encoded by the Prüfer
// sequence (length n-2, entries in [0,n)). For n in {1,2} the sequence must
// be empty.
func PruferDecode(n int, seq []int) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("graph: prüfer decode needs n >= 1, got %d", n)
	}
	if want := maxInt(n-2, 0); len(seq) != want {
		return nil, fmt.Errorf("graph: prüfer sequence length %d, want %d", len(seq), want)
	}
	g := New(n)
	if n == 1 {
		return g, nil
	}
	degree := make([]int, n)
	for i := range degree {
		degree[i] = 1
	}
	for _, v := range seq {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("graph: prüfer entry %d out of range [0,%d)", v, n)
		}
		degree[v]++
	}
	// ptr scans for the smallest leaf; leaf tracks the current leaf to
	// attach, allowing the classic O(n) decode.
	ptr := 0
	for degree[ptr] != 1 {
		ptr++
	}
	leaf := ptr
	for _, v := range seq {
		g.insertEdge(leaf, v)
		degree[v]--
		if degree[v] == 1 && v < ptr {
			leaf = v
		} else {
			ptr++
			for degree[ptr] != 1 {
				ptr++
			}
			leaf = ptr
		}
	}
	g.insertEdge(leaf, n-1)
	return g, nil
}

// PruferEncode returns the Prüfer sequence of a labeled tree. It reports an
// error if g is not a tree.
func PruferEncode(g *Graph) ([]int, error) {
	if !g.IsTree() {
		return nil, fmt.Errorf("graph: prüfer encode of non-tree (%s)", g)
	}
	n := g.n
	if n <= 2 {
		return nil, nil
	}
	degree := make([]int, n)
	adj := make([]map[int]bool, n)
	for u := 0; u < n; u++ {
		degree[u] = g.Degree(u)
		adj[u] = make(map[int]bool, degree[u])
		for _, v := range g.neigh[u] {
			adj[u][v] = true
		}
	}
	seq := make([]int, 0, n-2)
	ptr := 0
	for degree[ptr] != 1 {
		ptr++
	}
	leaf := ptr
	for len(seq) < n-2 {
		var parent int
		for v := range adj[leaf] {
			parent = v
		}
		seq = append(seq, parent)
		delete(adj[parent], leaf)
		degree[parent]--
		degree[leaf]--
		if degree[parent] == 1 && parent < ptr {
			leaf = parent
		} else {
			ptr++
			for degree[ptr] != 1 {
				ptr++
			}
			leaf = ptr
		}
	}
	return seq, nil
}

// AllFreeTrees returns an iterator over one representative of every
// isomorphism class of trees on n nodes, paired with each tree's canonical
// FreeTreeKey — computed anyway for the isomorphism reduction — so
// canonical-form caches downstream need not recompute it. Enumeration is
// deterministic; breaking out of the range stops the underlying rooted-tree
// generation immediately. The caller owns each yielded graph.
//
// Implementation: Beyer–Hedetniemi level-sequence generation of all rooted
// trees, reduced to free trees by AHU canonical hashing at the tree center.
func AllFreeTrees(n int) iter.Seq2[*Graph, string] {
	return func(yield func(*Graph, string) bool) {
		for g, cl := range AllFreeTreeClasses(n) {
			if !yield(g, cl.Key) {
				return
			}
		}
	}
}

// AllFreeTreeClasses is AllFreeTrees additionally reporting each class's
// orbit size n!/|Aut| (the number of labeled trees isomorphic to the
// representative; summed over the enumeration it recovers Cayley's
// n^(n-2)). Duplicate rooted trees are rejected on a scratch parent-array
// representation of the level sequence, so a Graph is only materialized
// for the first rooted tree of each free class — the same representative,
// in the same order, as always.
func AllFreeTreeClasses(n int) iter.Seq2[*Graph, Class] {
	return func(yield func(*Graph, Class) bool) {
		if n <= 0 {
			return
		}
		nfact := factorial(n)
		if n == 1 {
			g := New(1)
			yield(g, Class{Key: FreeTreeKey(g), Orbit: 1})
			return
		}
		seen := make(map[string]bool)
		lt := newLevelTree(n)
		rootedTrees(n, func(level []int) bool {
			lt.load(level)
			key, aut := lt.freeKeyAut()
			if seen[key] {
				return true
			}
			seen[key] = true
			return yield(treeFromLevels(level), Class{Key: key, Orbit: nfact / aut})
		})
	}
}

// rootedTrees generates the canonical level sequences of all rooted trees on
// n nodes (Beyer–Hedetniemi successor rule) and calls f with each until f
// returns false. The slice passed to f is reused.
func rootedTrees(n int, f func(level []int) bool) {
	level := make([]int, n)
	for i := range level {
		level[i] = i + 1 // the path: levels 1,2,...,n
	}
	for {
		if !f(level) {
			return
		}
		// Find rightmost position p with level[p] > 2.
		p := -1
		for i := n - 1; i >= 0; i-- {
			if level[i] > 2 {
				p = i
				break
			}
		}
		if p < 0 {
			return
		}
		// q: rightmost position before p with level[q] = level[p]-1.
		q := p - 1
		for level[q] != level[p]-1 {
			q--
		}
		// Successor: copy the segment starting at q cyclically from p on.
		for i := p; i < n; i++ {
			level[i] = level[i-(p-q)]
		}
	}
}

// treeFromLevels converts a rooted-tree level sequence (level[0]=1) into a
// graph: each node's parent is the nearest earlier node one level up.
func treeFromLevels(level []int) *Graph {
	n := len(level)
	g := New(n)
	for i := 1; i < n; i++ {
		for j := i - 1; j >= 0; j-- {
			if level[j] == level[i]-1 {
				g.insertEdge(i, j)
				break
			}
		}
	}
	return g
}

// levelTree is a reusable scratch decoding of a rooted level sequence into
// parent/children form, with center extraction and AHU encoding — the
// free-tree reduction of AllFreeTreeClasses without materializing a Graph
// per rooted tree.
type levelTree struct {
	n        int
	parent   []int
	children [][]int
	degree   []int
	removed  []bool
	leaves   []int
	next     []int
}

func newLevelTree(n int) *levelTree {
	return &levelTree{
		n:        n,
		parent:   make([]int, n),
		children: make([][]int, n),
		degree:   make([]int, n),
		removed:  make([]bool, n),
	}
}

// load decodes a level sequence (level[0] = 1) into parent and children
// lists: each node's parent is the nearest earlier node one level up —
// the same rule as treeFromLevels.
func (t *levelTree) load(level []int) {
	for i := range t.children {
		t.children[i] = t.children[i][:0]
	}
	t.parent[0] = -1
	for i := 1; i < t.n; i++ {
		for j := i - 1; j >= 0; j-- {
			if level[j] == level[i]-1 {
				t.parent[i] = j
				t.children[j] = append(t.children[j], i)
				break
			}
		}
	}
}

// centers returns the tree's 1 or 2 centers by iterative leaf removal
// (c2 = -1 when unicentral), mirroring Centers on the scratch arrays.
func (t *levelTree) centers() (c1, c2 int) {
	n := t.n
	if n == 1 {
		return 0, -1
	}
	for u := 0; u < n; u++ {
		d := len(t.children[u])
		if t.parent[u] >= 0 {
			d++
		}
		t.degree[u] = d
		t.removed[u] = false
	}
	leaves := t.leaves[:0]
	for u := 0; u < n; u++ {
		if t.degree[u] <= 1 {
			leaves = append(leaves, u)
		}
	}
	next := t.next[:0]
	remaining := n
	drop := func(v int) {
		if !t.removed[v] {
			t.degree[v]--
			if t.degree[v] == 1 {
				next = append(next, v)
			}
		}
	}
	for remaining > 2 {
		next = next[:0]
		for _, u := range leaves {
			t.removed[u] = true
			remaining--
			if p := t.parent[u]; p >= 0 {
				drop(p)
			}
			for _, c := range t.children[u] {
				drop(c)
			}
		}
		leaves, next = next, leaves
	}
	t.leaves, t.next = leaves, next
	c1, c2 = -1, -1
	for u := 0; u < n; u++ {
		if !t.removed[u] {
			if c1 < 0 {
				c1 = u
			} else {
				c2 = u
			}
		}
	}
	return c1, c2
}

// ahuAut returns the AHU encoding of the subtree rooted at u with parent p
// together with the order of the rooted subtree's automorphism group:
// the product over child-subtree multiplicity groups of mult! times each
// child's own rooted automorphism count.
func (t *levelTree) ahuAut(u, p int) (string, int64) {
	var encs []string
	aut := int64(1)
	visit := func(v int) {
		e, a := t.ahuAut(v, u)
		encs = append(encs, e)
		aut *= a
	}
	if q := t.parent[u]; q >= 0 && q != p {
		visit(q)
	}
	for _, c := range t.children[u] {
		if c != p {
			visit(c)
		}
	}
	sort.Strings(encs)
	run := 1
	for i := 1; i <= len(encs); i++ {
		if i < len(encs) && encs[i] == encs[i-1] {
			run++
			continue
		}
		aut *= factorial(run)
		run = 1
	}
	return "(" + strings.Join(encs, "") + ")", aut
}

// freeKeyAut returns the loaded tree's FreeTreeKey together with the order
// of its automorphism group. A unicentral tree's automorphisms fix the
// center; a bicentral tree's fix or swap the center edge, and the swap
// exists exactly when the two halves are isomorphic as rooted trees.
func (t *levelTree) freeKeyAut() (string, int64) {
	c1, c2 := t.centers()
	if c2 < 0 {
		return t.ahuAut(c1, -1)
	}
	e1, _ := t.ahuAut(c1, -1)
	e2, _ := t.ahuAut(c2, -1)
	key := e1
	if e2 < e1 {
		key = e2
	}
	h1, a1 := t.ahuAut(c1, c2)
	h2, a2 := t.ahuAut(c2, c1)
	aut := a1 * a2
	if h1 == h2 {
		aut *= 2
	}
	return key, aut
}

// FreeTreeKey returns a canonical string for a free tree: the AHU encoding
// rooted at the tree's center (for bicentral trees, the lexicographically
// smaller of the two center encodings, each including the other half).
// Isomorphic trees share the key; non-isomorphic trees differ.
func FreeTreeKey(g *Graph) string {
	centers := Centers(g)
	best := ""
	for _, c := range centers {
		s := ahu(g, c, -1)
		if best == "" || s < best {
			best = s
		}
	}
	return best
}

// ahu returns the canonical parenthesis string of the subtree rooted at u
// with parent p (AHU encoding).
func ahu(g *Graph, u, p int) string {
	var children []string
	for _, v := range g.neigh[u] {
		if v != p {
			children = append(children, ahu(g, v, u))
		}
	}
	sort.Strings(children)
	return "(" + strings.Join(children, "") + ")"
}

// Centers returns the 1 or 2 centers (minimum eccentricity nodes) of a tree
// by iterative leaf removal. It panics on non-trees, which would indicate a
// caller bug.
func Centers(g *Graph) []int {
	if !g.IsTree() {
		panic("graph: Centers on non-tree")
	}
	n := g.n
	if n == 1 {
		return []int{0}
	}
	degree := make([]int, n)
	removed := make([]bool, n)
	var leaves []int
	for u := 0; u < n; u++ {
		degree[u] = g.Degree(u)
		if degree[u] <= 1 {
			leaves = append(leaves, u)
		}
	}
	remaining := n
	for remaining > 2 {
		var next []int
		for _, u := range leaves {
			removed[u] = true
			remaining--
			for _, v := range g.neigh[u] {
				if removed[v] {
					continue
				}
				degree[v]--
				if degree[v] == 1 {
					next = append(next, v)
				}
			}
		}
		leaves = next
	}
	var centers []int
	for u := 0; u < n; u++ {
		if !removed[u] {
			centers = append(centers, u)
		}
	}
	return centers
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
