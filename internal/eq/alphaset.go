package eq

import (
	"sort"
	"strings"

	"repro/internal/exact"
	"repro/internal/game"
)

// This file implements the exact α-interval arithmetic behind the
// parametric certificates: every deviation of every solution concept
// improves its actors on a single interval of edge prices (costs compare
// by the α-linear form num·Buy + den·Dist, so each comparison flips at one
// rational breakpoint α* = −ΔDist/ΔBuy), and a state's stable-α set is the
// complement of the union of those intervals within [0, ∞). All endpoint
// arithmetic is exact int64 rational — no floats ever enter a verdict.

// Rat is an exact non-negative rational α-axis point num/den, or +∞
// (Den == 0 by convention). Finite values keep Den > 0 and are reduced.
type Rat struct {
	Num, Den int64
}

// RatOf returns the reduced rational num/den. It panics on den <= 0 or
// num < 0: certificate endpoints live on the α-axis [0, ∞).
func RatOf(num, den int64) Rat {
	if den <= 0 || num < 0 {
		panic("eq: rational endpoint outside [0, ∞)")
	}
	g := gcdRat(num, den)
	return Rat{Num: num / g, Den: den / g}
}

func gcdRat(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 1
	}
	return a
}

// RatInf returns the +∞ endpoint.
func RatInf() Rat { return Rat{Num: 1, Den: 0} }

// IsInf reports whether r is +∞.
func (r Rat) IsInf() bool { return r.Den == 0 }

// Cmp compares two endpoints exactly, returning -1, 0 or 1.
func (r Rat) Cmp(o Rat) int {
	switch {
	case r.IsInf() && o.IsInf():
		return 0
	case r.IsInf():
		return 1
	case o.IsInf():
		return -1
	}
	return exact.Cmp(r.Num, o.Den, o.Num, r.Den)
}

// Alpha converts a finite endpoint to a game.Alpha. It panics on +∞.
func (r Rat) Alpha() game.Alpha {
	a, err := game.NewAlpha(r.Num, r.Den)
	if err != nil {
		panic("eq: infinite endpoint has no α value")
	}
	return a
}

// String renders the endpoint ("3", "9/2" or "∞").
func (r Rat) String() string {
	if r.IsInf() {
		return "∞"
	}
	return r.Alpha().String()
}

func ratOfAlpha(a game.Alpha) Rat { return Rat{Num: a.Num(), Den: a.Den()} }

// AlphaInterval is one interval of an AlphaSet: Lo..Hi with each finite
// endpoint either included (closed) or excluded (open). Hi may be +∞, in
// which case HiOpen is irrelevant and kept false.
type AlphaInterval struct {
	Lo, Hi         Rat
	LoOpen, HiOpen bool
}

// empty reports whether the interval contains no point.
func (iv AlphaInterval) empty() bool {
	switch iv.Lo.Cmp(iv.Hi) {
	case -1:
		return false
	case 0:
		return iv.LoOpen || iv.HiOpen
	default:
		return true
	}
}

// contains reports whether the exact point p lies in the interval.
func (iv AlphaInterval) contains(p Rat) bool {
	switch iv.Lo.Cmp(p) {
	case 1:
		return false
	case 0:
		if iv.LoOpen {
			return false
		}
	}
	switch p.Cmp(iv.Hi) {
	case 1:
		return false
	case 0:
		if iv.HiOpen {
			return false
		}
	}
	return true
}

// String renders the interval with standard bracket notation.
func (iv AlphaInterval) String() string {
	var b strings.Builder
	if iv.LoOpen {
		b.WriteByte('(')
	} else {
		b.WriteByte('[')
	}
	b.WriteString(iv.Lo.String())
	b.WriteString(", ")
	b.WriteString(iv.Hi.String())
	if iv.HiOpen || iv.Hi.IsInf() {
		b.WriteByte(')')
	} else {
		b.WriteByte(']')
	}
	return b.String()
}

// fullAxis is the whole α-axis [0, ∞).
func fullAxis() AlphaInterval {
	return AlphaInterval{Lo: Rat{Num: 0, Den: 1}, Hi: RatInf()}
}

// AlphaSet is a finite union of disjoint, sorted α intervals within
// [0, ∞) — the exact set of edge prices at which one state is stable for
// one solution concept. The zero value is the empty set. An AlphaSet is
// immutable after construction and safe to share between goroutines.
type AlphaSet struct {
	ivs []AlphaInterval
}

// FullAlphaSet returns the whole axis [0, ∞) — stable at every price.
func FullAlphaSet() AlphaSet { return AlphaSet{ivs: []AlphaInterval{fullAxis()}} }

// AlphaSetOf builds an AlphaSet from intervals that must be non-empty,
// sorted and pairwise disjoint (the on-disk certificate format); it panics
// otherwise, so a corrupted certificate cannot silently answer queries.
func AlphaSetOf(ivs []AlphaInterval) AlphaSet {
	for i, iv := range ivs {
		if iv.empty() {
			panic("eq: empty certificate interval")
		}
		if i > 0 && !ivs[i-1].disjointBelow(iv) {
			panic("eq: certificate intervals unsorted or overlapping")
		}
	}
	return AlphaSet{ivs: append([]AlphaInterval(nil), ivs...)}
}

// disjointBelow reports whether a lies strictly below b with a genuine gap
// or touching endpoints that are not both included.
func (iv AlphaInterval) disjointBelow(b AlphaInterval) bool {
	switch c := iv.Hi.Cmp(b.Lo); {
	case c < 0:
		return true
	case c == 0:
		return iv.HiOpen || b.LoOpen
	default:
		return false
	}
}

// IsEmpty reports whether the set contains no price.
func (s AlphaSet) IsEmpty() bool { return len(s.ivs) == 0 }

// Intervals returns a copy of the set's intervals in increasing order.
func (s AlphaSet) Intervals() []AlphaInterval {
	return append([]AlphaInterval(nil), s.ivs...)
}

// Contains reports whether the exact price alpha lies in the set, by
// binary search over the interval endpoints — O(log B) per query, the
// whole point of answering a dense α-grid from one certificate.
func (s AlphaSet) Contains(alpha game.Alpha) bool {
	p := ratOfAlpha(alpha)
	// First interval whose Hi is not below p.
	i := sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].Hi.Cmp(p) >= 0 })
	return i < len(s.ivs) && s.ivs[i].contains(p)
}

// Equal reports exact set equality.
func (s AlphaSet) Equal(o AlphaSet) bool {
	if len(s.ivs) != len(o.ivs) {
		return false
	}
	for i, iv := range s.ivs {
		ov := o.ivs[i]
		if iv.Lo.Cmp(ov.Lo) != 0 || iv.Hi.Cmp(ov.Hi) != 0 ||
			iv.LoOpen != ov.LoOpen || (iv.HiOpen != ov.HiOpen && !iv.Hi.IsInf()) {
			return false
		}
	}
	return true
}

// Breakpoints returns the exact critical prices at which the verdict
// flips, in increasing order. A closed start at 0 is not a breakpoint —
// there is no price below it to flip from; every other finite endpoint
// separates membership on its two sides.
func (s AlphaSet) Breakpoints() []game.Alpha {
	var out []game.Alpha
	add := func(r Rat) {
		if len(out) == 0 || ratOfAlpha(out[len(out)-1]).Cmp(r) != 0 {
			out = append(out, r.Alpha())
		}
	}
	for _, iv := range s.ivs {
		if !(iv.Lo.Cmp(RatOf(0, 1)) == 0 && !iv.LoOpen) {
			add(iv.Lo)
		}
		if !iv.Hi.IsInf() {
			add(iv.Hi)
		}
	}
	return out
}

// String renders the set ("∅", "[0, 1/2] ∪ (2, ∞)").
func (s AlphaSet) String() string {
	if len(s.ivs) == 0 {
		return "∅"
	}
	parts := make([]string, len(s.ivs))
	for i, iv := range s.ivs {
		parts[i] = iv.String()
	}
	return strings.Join(parts, " ∪ ")
}

// MarshalJSON renders the set as its exact string form, so certificates
// appear in JSON as human-readable interval notation and never as floats.
func (s AlphaSet) MarshalJSON() ([]byte, error) {
	var b strings.Builder
	b.WriteByte('"')
	b.WriteString(s.String())
	b.WriteByte('"')
	return []byte(b.String()), nil
}

// ---- union accumulation and complement ----

// unionAdd inserts iv into the sorted disjoint union ivs, merging every
// interval it overlaps or touches-with-coverage, and returns the new
// union. Touching open endpoints ((a,b) then (b,c)) do NOT merge: the
// point b stays uncovered, which the complement must see — it is exactly
// the degenerate single-price stable point.
//
// The slice is edited in place (the certificate scans call this once per
// improving deviation, millions of times per sweep); it only allocates
// when a genuine insertion outgrows the capacity.
func unionAdd(ivs []AlphaInterval, iv AlphaInterval) []AlphaInterval {
	if iv.empty() {
		return ivs
	}
	// Find the window [i, j) of intervals connected to iv.
	i := 0
	for i < len(ivs) && ivs[i].disjointBelow(iv) {
		i++
	}
	j := i
	for j < len(ivs) && !iv.disjointBelow(ivs[j]) {
		j++
	}
	if i < j {
		// Merge with the connected run.
		first, last := ivs[i], ivs[j-1]
		switch c := first.Lo.Cmp(iv.Lo); {
		case c < 0:
			iv.Lo, iv.LoOpen = first.Lo, first.LoOpen
		case c == 0:
			iv.LoOpen = iv.LoOpen && first.LoOpen
		}
		switch c := last.Hi.Cmp(iv.Hi); {
		case c > 0:
			iv.Hi, iv.HiOpen = last.Hi, last.HiOpen
		case c == 0:
			iv.HiOpen = iv.HiOpen && last.HiOpen
		}
		ivs[i] = iv
		if j > i+1 {
			ivs = append(ivs[:i+1], ivs[j:]...)
		}
		return ivs
	}
	// Pure insertion at i.
	ivs = append(ivs, AlphaInterval{})
	copy(ivs[i+1:], ivs[i:])
	ivs[i] = iv
	return ivs
}

// coversAxis reports whether the union is the whole axis [0, ∞) — the
// certificate scans' early-exit: once every price has an improving
// deviation, no further scanning can change the (empty) stable set.
func coversAxis(ivs []AlphaInterval) bool {
	return len(ivs) == 1 &&
		ivs[0].Lo.Cmp(RatOf(0, 1)) == 0 && !ivs[0].LoOpen &&
		ivs[0].Hi.IsInf()
}

// complementAxis returns [0, ∞) minus the sorted disjoint union ivs: the
// stable set, whose finite endpoints are exactly the union's endpoints
// with inverted openness (a strict-improvement comparison is indifferent
// at its breakpoint, so stable sets are closed where improving sets were
// open — including degenerate single-point intervals between two touching
// open improving intervals).
func complementAxis(ivs []AlphaInterval) AlphaSet {
	var out []AlphaInterval
	lo, loOpen := RatOf(0, 1), false
	for _, iv := range ivs {
		gap := AlphaInterval{Lo: lo, LoOpen: loOpen, Hi: iv.Lo, HiOpen: !iv.LoOpen}
		if iv.Lo.IsInf() {
			gap.HiOpen = false
		}
		if !gap.empty() {
			out = append(out, gap)
		}
		if iv.Hi.IsInf() {
			return AlphaSet{ivs: out}
		}
		lo, loOpen = iv.Hi, !iv.HiOpen
	}
	out = append(out, AlphaInterval{Lo: lo, LoOpen: loOpen, Hi: RatInf()})
	return AlphaSet{ivs: out}
}
