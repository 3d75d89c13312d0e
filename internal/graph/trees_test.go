package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPruferRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		n    int
		seq  []int
	}{
		{name: "path4", n: 4, seq: []int{1, 2}},
		{name: "star5", n: 5, seq: []int{0, 0, 0}},
		{name: "caterpillar", n: 6, seq: []int{1, 1, 2, 2}},
		{name: "two nodes", n: 2, seq: nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			g, err := PruferDecode(tt.n, tt.seq)
			if err != nil {
				t.Fatal(err)
			}
			if !g.IsTree() {
				t.Fatalf("decode produced non-tree: %s", g)
			}
			back, err := PruferEncode(g)
			if err != nil {
				t.Fatal(err)
			}
			if len(back) != len(tt.seq) {
				t.Fatalf("roundtrip length %d, want %d", len(back), len(tt.seq))
			}
			for i := range tt.seq {
				if back[i] != tt.seq[i] {
					t.Fatalf("roundtrip = %v, want %v", back, tt.seq)
				}
			}
		})
	}
}

func TestPruferDecodeErrors(t *testing.T) {
	if _, err := PruferDecode(0, nil); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := PruferDecode(4, []int{1}); err == nil {
		t.Fatal("short sequence accepted")
	}
	if _, err := PruferDecode(4, []int{1, 7}); err == nil {
		t.Fatal("out-of-range entry accepted")
	}
}

func TestPruferEncodeRejectsNonTree(t *testing.T) {
	g := MustFromEdges(3, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}})
	if _, err := PruferEncode(g); err == nil {
		t.Fatal("cycle accepted by PruferEncode")
	}
}

// TestPruferRoundTripProperty uses testing/quick: every random Prüfer
// sequence decodes to a tree that encodes back to itself.
func TestPruferRoundTripProperty(t *testing.T) {
	f := func(raw []uint8, nRaw uint8) bool {
		n := int(nRaw%10) + 3
		seq := make([]int, n-2)
		for i := range seq {
			var b uint8
			if i < len(raw) {
				b = raw[i]
			}
			seq[i] = int(b) % n
		}
		g, err := PruferDecode(n, seq)
		if err != nil || !g.IsTree() {
			return false
		}
		back, err := PruferEncode(g)
		if err != nil || len(back) != len(seq) {
			return false
		}
		for i := range seq {
			if back[i] != seq[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Known counts of free (unlabeled) trees: OEIS A000055.
func TestFreeTreeCounts(t *testing.T) {
	want := map[int]int{1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106, 11: 235}
	for n := 1; n <= 11; n++ {
		got := 0
		for g := range AllFreeTrees(n) {
			if !g.IsTree() || g.N() != n {
				t.Fatalf("AllFreeTrees(%d) yielded invalid tree %s", n, g)
			}
			got++
		}
		if got != want[n] {
			t.Fatalf("AllFreeTrees(%d) = %d trees, want %d", n, got, want[n])
		}
	}
}

func TestFreeTreesDistinct(t *testing.T) {
	seen := make(map[string]bool)
	for g := range AllFreeTrees(8) {
		key := FreeTreeKey(g)
		if seen[key] {
			t.Fatalf("duplicate tree yielded: %s", g)
		}
		seen[key] = true
	}
}

func TestCenters(t *testing.T) {
	tests := []struct {
		name  string
		build func() *Graph
		want  []int
	}{
		{
			name:  "path5 center",
			build: func() *Graph { g, _ := PruferDecode(5, []int{1, 2, 3}); return g },
			want:  []int{2},
		},
		{
			name: "path4 bicentral",
			build: func() *Graph {
				return MustFromEdges(4, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
			},
			want: []int{1, 2},
		},
		{
			name: "star center",
			build: func() *Graph {
				return MustFromEdges(4, []Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}})
			},
			want: []int{0},
		},
		{
			name:  "single node",
			build: func() *Graph { return New(1) },
			want:  []int{0},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Centers(tt.build())
			if len(got) != len(tt.want) {
				t.Fatalf("Centers = %v, want %v", got, tt.want)
			}
			for i := range tt.want {
				if got[i] != tt.want[i] {
					t.Fatalf("Centers = %v, want %v", got, tt.want)
				}
			}
		})
	}
}

// TestFreeTreeKeyInvariantUnderPermutation: relabeling a random tree never
// changes its canonical key.
func TestFreeTreeKeyInvariantUnderPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(12)
		g := RandomTree(n, rng)
		perm := rng.Perm(n)
		h, err := g.Permute(perm)
		if err != nil {
			t.Fatal(err)
		}
		if FreeTreeKey(g) != FreeTreeKey(h) {
			t.Fatalf("FreeTreeKey changed under permutation: %s vs %s", g, h)
		}
	}
}
