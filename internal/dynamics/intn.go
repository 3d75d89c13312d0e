package dynamics

import (
	"math/bits"
	"math/rand"
)

// intnTable replaces the two 32-bit divisions of rand.Rand.Int31n — the
// rejection bound (1<<31)%n and the final v%n — with Lemire's fastmod
// multiplications (Lemire, Kaser, Kurz: "Faster remainder by direct
// computation", 2019). Entry i is the reciprocal of n = i+1, so a
// Fisher–Yates shuffle over k elements builds the table once and then
// draws division-free. Every draw consumes the same rng.Int31 calls and
// returns the same value as rng.Intn(i+1).
type intnTable []uint64

// newIntnTable returns the reciprocals for rng.Intn(1) … rng.Intn(k).
func newIntnTable(k int) intnTable {
	t := make(intnTable, k)
	for i := range t {
		t[i] = fastmodReciprocal(uint32(i + 1))
	}
	return t
}

// intn returns rng.Intn(i+1), draw for draw, for 0 ≤ i < len(t).
func (t intnTable) intn(rng *rand.Rand, i int) int {
	return int(fastIntn(rng, uint32(i+1), t[i]))
}

// fastmodReciprocal returns M = ⌊(2⁶⁴−1)/d⌋ + 1, the fastmod constant of
// the divisor d ≥ 1 (it wraps to 0 for d = 1, which fastmod handles).
func fastmodReciprocal(d uint32) uint64 {
	return ^uint64(0)/uint64(d) + 1
}

// fastmod returns a % d for every 32-bit a, given m = fastmodReciprocal(d).
func fastmod(a uint32, m uint64, d uint32) uint32 {
	hi, _ := bits.Mul64(m*uint64(a), uint64(d))
	return uint32(hi)
}

// fastIntn is rand.Rand.Int31n(n) for 1 ≤ n < 2³¹ with both divisions
// replaced by fastmod: the same power-of-two mask, the same rejection
// bound and loop, the same rng.Int31 calls, hence the same result and the
// same generator state afterwards.
func fastIntn(rng *rand.Rand, n uint32, m uint64) int32 {
	if n&(n-1) == 0 {
		return rng.Int31() & int32(n-1)
	}
	max := int32((1 << 31) - 1 - fastmod(1<<31, m, n))
	v := rng.Int31()
	for v > max {
		v = rng.Int31()
	}
	return int32(fastmod(uint32(v), m, n))
}
