// Package exact holds the one exact comparison behind every rational
// comparison of edge prices: a·b against c·d over int64 operands, computed
// on 128-bit products so no input the system accepts can overflow it. It
// has no dependencies, so the store can share it with game and eq without
// importing either.
package exact

import "math/bits"

// Less reports whether a·b < c·d, exactly. It is small enough to inline,
// which keeps the per-deviation cost comparisons of the scans call-free.
func Less(a, b, c, d int64) bool {
	// The unsigned products of the bit patterns, each high word corrected
	// to the signed product (by b for a negative a, by a for a negative b),
	// then the high word of their difference. Both products lie in
	// [−2¹²⁶ + 2⁶³, 2¹²⁶], so the difference fits in 128 bits and its sign
	// is the sign of that high word.
	lh, ll := bits.Mul64(uint64(a), uint64(b))
	rh, rl := bits.Mul64(uint64(c), uint64(d))
	_, borrow := bits.Sub64(ll, rl, 0)
	return int64(lh-rh-borrow)-(a>>63)&b-(b>>63)&a+(c>>63)&d+(d>>63)&c < 0
}

// Cmp returns the sign of a·b − c·d (-1, 0 or 1), exactly.
func Cmp(a, b, c, d int64) int {
	switch {
	case Less(a, b, c, d):
		return -1
	case Less(c, d, a, b):
		return 1
	}
	return 0
}
