package dynamics

import (
	"math/rand"
	"testing"
)

// TestFastIntnMatchesIntn pins the division-free draw against rand.Intn
// draw for draw: two generators from one seed, one drawing through
// fastIntn and one through Intn, must return the same value for every
// n ≤ 2¹⁶+1, every power of two, and the neighbors of powers of two up to
// 2³¹−1 (where rejection is most frequent), and must still be aligned
// afterwards.
func TestFastIntnMatchesIntn(t *testing.T) {
	ns := make([]uint32, 0, 1<<17)
	for n := uint32(1); n <= 1<<16+1; n++ {
		ns = append(ns, n)
	}
	for p := uint32(1 << 17); p <= 1<<30; p <<= 1 {
		ns = append(ns, p-1, p, p+1)
	}
	ns = append(ns, 1<<31-3, 1<<31-2, 1<<31-1)
	fast := rand.New(rand.NewSource(17))
	ref := rand.New(rand.NewSource(17))
	for _, n := range ns {
		m := fastmodReciprocal(n)
		draws := 1
		if n > 1<<16 {
			draws = 64 // large n: exercise the rejection loop
		}
		for k := 0; k < draws; k++ {
			if got, want := int(fastIntn(fast, n, m)), ref.Intn(int(n)); got != want {
				t.Fatalf("n=%d draw %d: fastIntn = %d, rand.Intn = %d", n, k, got, want)
			}
		}
	}
	if a, b := fast.Int63(), ref.Int63(); a != b {
		t.Fatalf("streams diverged after the draws: %d vs %d", a, b)
	}
}

// TestIntnTableShuffle: a Fisher–Yates shuffle through the engine's table
// produces the permutation rand.Intn does and leaves the same stream.
func TestIntnTableShuffle(t *testing.T) {
	const k = 19900 // the pair pool at n = 200
	tab := newIntnTable(k)
	a, b := make([]int32, k), make([]int32, k)
	for i := range a {
		a[i], b[i] = int32(i), int32(i)
	}
	fast := rand.New(rand.NewSource(3))
	ref := rand.New(rand.NewSource(3))
	for round := 0; round < 3; round++ {
		for i := k - 1; i > 0; i-- {
			j := tab.intn(fast, i)
			a[i], a[j] = a[j], a[i]
			j = ref.Intn(i + 1)
			b[i], b[j] = b[j], b[i]
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("round %d: permutations differ at %d", round, i)
			}
		}
	}
	if fast.Int63() != ref.Int63() {
		t.Fatal("streams diverged after the shuffles")
	}
}
