// Package game defines the (Bilateral) Network Creation Game: exact edge
// prices, agent and social costs, social optima and the social cost ratio ρ.
//
// Cost arithmetic is exact. The edge price α is a rational number and agent
// costs are compared lexicographically as (unreachable-node count, exact
// α·buy + dist). The lexicographic first component implements the paper's
// device of pricing disconnection at M > α·n³: an agent always prefers
// reaching more agents, and among states with equal reachability compares
// exact costs.
package game

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/exact"
)

// Alpha is an exact non-negative rational edge price num/den.
type Alpha struct {
	num int64
	den int64
}

// NewAlpha returns the edge price num/den. It reports an error unless
// num >= 0 and den > 0.
func NewAlpha(num, den int64) (Alpha, error) {
	if den <= 0 {
		return Alpha{}, fmt.Errorf("game: alpha denominator %d must be positive", den)
	}
	if num < 0 {
		return Alpha{}, fmt.Errorf("game: alpha numerator %d must be non-negative", num)
	}
	g := gcd64(num, den)
	return Alpha{num: num / g, den: den / g}, nil
}

// A returns the integer edge price n (a convenience for the common case).
// It panics for negative n.
func A(n int64) Alpha {
	a, err := NewAlpha(n, 1)
	if err != nil {
		panic(err)
	}
	return a
}

// AFrac returns the edge price num/den, panicking on invalid input. Use it
// for statically known prices such as the paper's α = 9/2.
func AFrac(num, den int64) Alpha {
	a, err := NewAlpha(num, den)
	if err != nil {
		panic(err)
	}
	return a
}

// Num returns the reduced numerator.
func (a Alpha) Num() int64 { return a.num }

// Den returns the reduced denominator (1 for the zero value, by convention
// of IsZero below).
func (a Alpha) Den() int64 {
	if a.den == 0 {
		return 1
	}
	return a.den
}

// Float returns the price as a float64 for reporting only; comparisons must
// use the exact forms.
func (a Alpha) Float() float64 { return float64(a.num) / float64(a.Den()) }

// Cmp compares a with the rational p/q and returns -1, 0 or 1.
func (a Alpha) Cmp(p, q int64) int {
	if q <= 0 {
		panic("game: Cmp with non-positive denominator")
	}
	return exact.Cmp(a.num, q, p, a.Den())
}

// LessThanInt reports a < k.
func (a Alpha) LessThanInt(k int64) bool { return a.Cmp(k, 1) < 0 }

// AtLeastInt reports a >= k.
func (a Alpha) AtLeastInt(k int64) bool { return a.Cmp(k, 1) >= 0 }

// ParseAlpha parses the forms String renders — "3" or "9/2" — back into
// an exact price, so grids round-trip through flags, checkpoints and URLs.
func ParseAlpha(s string) (Alpha, error) {
	if s == "" {
		return Alpha{}, fmt.Errorf("game: empty alpha")
	}
	num, den := s, "1"
	if i := strings.IndexByte(s, '/'); i >= 0 {
		num, den = s[:i], s[i+1:]
	}
	p, err1 := strconv.ParseInt(num, 10, 64)
	q, err2 := strconv.ParseInt(den, 10, 64)
	if err1 != nil || err2 != nil {
		return Alpha{}, fmt.Errorf("game: bad alpha %q (want p or p/q)", s)
	}
	return NewAlpha(p, q)
}

// String renders the price ("3" or "9/2").
func (a Alpha) String() string {
	if a.Den() == 1 {
		return fmt.Sprintf("%d", a.num)
	}
	return fmt.Sprintf("%d/%d", a.num, a.Den())
}

// MarshalJSON renders the price as its exact string form ("3" or "9/2"),
// never a float, so JSON output is stable and lossless.
func (a Alpha) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%q", a.String())), nil
}

func gcd64(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 1
	}
	return a
}
