package exact

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

func refCmp(a, b, c, d int64) int {
	l := new(big.Int).Mul(big.NewInt(a), big.NewInt(b))
	r := new(big.Int).Mul(big.NewInt(c), big.NewInt(d))
	return l.Cmp(r)
}

// TestCmpMatchesBigInt pins Cmp and Less against math/big on the int64
// extremes (where a 64-bit product overflows) and on random operands.
func TestCmpMatchesBigInt(t *testing.T) {
	edges := []int64{math.MinInt64, math.MinInt64 + 1, -1 << 62, -3, -1, 0, 1, 2, 3,
		1<<31 - 1, 1 << 32, 1<<62 - 1, 1 << 62, (math.MaxInt64 - 1) / 3, math.MaxInt64 - 1, math.MaxInt64}
	for _, a := range edges {
		for _, b := range edges {
			for _, c := range edges {
				for _, d := range edges {
					want := refCmp(a, b, c, d)
					if got := Cmp(a, b, c, d); got != want {
						t.Fatalf("Cmp(%d, %d, %d, %d) = %d, want %d", a, b, c, d, got, want)
					}
					if got := Less(a, b, c, d); got != (want < 0) {
						t.Fatalf("Less(%d, %d, %d, %d) = %v, want %v", a, b, c, d, got, want < 0)
					}
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		v := [4]int64{}
		for j := range v {
			v[j] = rng.Int63() >> uint(rng.Intn(63))
			if rng.Intn(2) == 0 {
				v[j] = -v[j]
			}
		}
		if got, want := Cmp(v[0], v[1], v[2], v[3]), refCmp(v[0], v[1], v[2], v[3]); got != want {
			t.Fatalf("Cmp(%d, %d, %d, %d) = %d, want %d", v[0], v[1], v[2], v[3], got, want)
		}
	}
}
