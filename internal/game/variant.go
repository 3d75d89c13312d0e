package game

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Consent is the agreement rule a deviation needs: bilateral moves require
// every non-initiating agent touched by a new edge to strictly improve
// (the paper's model); unilateral moves require only the initiating agent
// to improve (the Fabrikant-et-al. NCG convention, in equilibrium form).
type Consent uint8

const (
	// ConsentBilateral is the paper's model: both endpoints of a new edge
	// must strictly benefit. The zero value, so Game{N, Alpha} literals
	// keep their historical meaning.
	ConsentBilateral Consent = iota
	// ConsentUnilateral lets an agent buy, drop or swap her own edges with
	// nobody's agreement; only the initiator must strictly benefit.
	ConsentUnilateral
)

// DistMode selects the distance term of an agent's cost: the sum of her
// finite hop distances (the paper's model) or her eccentricity — the
// maximum finite hop distance.
type DistMode uint8

const (
	// DistSum is the paper's sum-of-distances cost. The zero value.
	DistSum DistMode = iota
	// DistMax prices distance by eccentricity: the farthest reachable
	// agent. Unreachable agents are still counted lexicographically first.
	DistMax
)

// AgentPrice scales one agent's edge price: agent Agent pays Mul·α per
// edge instead of α. Mul is a positive exact rational.
type AgentPrice struct {
	Agent int
	Mul   Alpha
}

// Variant describes a game in the generalized family the certificate
// engine evaluates: a consent mode, a distance aggregate, and optional
// per-agent price multipliers (heterogeneous α). The zero value is the
// paper's exact model — bilateral consent, sum distances, uniform α — so
// every existing Game construction keeps its meaning.
//
// Variants are carried by canonical string everywhere they cross a
// boundary (cache keys, store frames, checkpoints, URLs, flags): the zero
// value renders as "default" and keys as the empty string, which is what
// keeps legacy artifacts readable as the default variant.
type Variant struct {
	Consent Consent
	Dist    DistMode
	// Prices holds the non-identity per-agent multipliers in canonical
	// form: sorted by agent, no duplicates, no Mul == 1 entries. Build
	// canonical values with ParseVariant or NewVariant.
	Prices []AgentPrice
}

// NewVariant returns a canonicalized variant: identity multipliers are
// dropped and the rest sorted by agent. It reports an error for negative
// agents, duplicate agents, or non-positive multipliers.
func NewVariant(consent Consent, dist DistMode, prices []AgentPrice) (Variant, error) {
	v := Variant{Consent: consent, Dist: dist}
	if consent > ConsentUnilateral {
		return Variant{}, fmt.Errorf("game: unknown consent mode %d", consent)
	}
	if dist > DistMax {
		return Variant{}, fmt.Errorf("game: unknown distance mode %d", dist)
	}
	for _, p := range prices {
		if p.Agent < 0 {
			return Variant{}, fmt.Errorf("game: price multiplier for negative agent %d", p.Agent)
		}
		if p.Mul.Num() < 1 {
			return Variant{}, fmt.Errorf("game: price multiplier %s for agent %d must be positive", p.Mul, p.Agent)
		}
		if p.Mul.Num() == 1 && p.Mul.Den() == 1 {
			continue // identity: canonical form omits it
		}
		v.Prices = append(v.Prices, p)
	}
	sort.Slice(v.Prices, func(i, j int) bool { return v.Prices[i].Agent < v.Prices[j].Agent })
	for i := 1; i < len(v.Prices); i++ {
		if v.Prices[i].Agent == v.Prices[i-1].Agent {
			return Variant{}, fmt.Errorf("game: duplicate price multiplier for agent %d", v.Prices[i].Agent)
		}
	}
	return v, nil
}

// IsDefault reports whether v is the paper's exact model (the zero value).
func (v Variant) IsDefault() bool {
	return v.Consent == ConsentBilateral && v.Dist == DistSum && len(v.Prices) == 0
}

// String renders the canonical variant descriptor: "default" for the zero
// value, otherwise the non-default terms joined by commas — "unilateral",
// "max", "mul:AGENT=P/Q" — in that fixed order. ParseVariant inverts it.
func (v Variant) String() string {
	if v.IsDefault() {
		return "default"
	}
	var terms []string
	if v.Consent == ConsentUnilateral {
		terms = append(terms, "unilateral")
	}
	if v.Dist == DistMax {
		terms = append(terms, "max")
	}
	for _, p := range v.Prices {
		terms = append(terms, fmt.Sprintf("mul:%d=%s", p.Agent, p.Mul))
	}
	return strings.Join(terms, ",")
}

// Key returns the canonical cache/store key of the variant: the empty
// string for the default variant (so legacy keys and frames keep meaning)
// and the String form otherwise.
func (v Variant) Key() string {
	if v.IsDefault() {
		return ""
	}
	return v.String()
}

// MarshalJSON renders the variant as its canonical string form.
func (v Variant) MarshalJSON() ([]byte, error) {
	return []byte(strconv.Quote(v.String())), nil
}

// Validate reports an error if the variant is not in canonical form,
// references an agent outside [0, n), or carries a multiplier whose
// numerator or denominator exceeds ⌊(2⁶³−1)/n²⌋. An agent's buy count is
// below n and her distance sum below n²/2, so that bound keeps costs scaled
// by a multiplier (Cost.Scale) in int64, and the certificate breakpoints
// formed from their differences below 2⁶². Validate is what the sweep,
// store and server layers run on descriptors that crossed a trust boundary.
func (v Variant) Validate(n int) error {
	if v.Consent > ConsentUnilateral {
		return fmt.Errorf("game: unknown consent mode %d", v.Consent)
	}
	if v.Dist > DistMax {
		return fmt.Errorf("game: unknown distance mode %d", v.Dist)
	}
	for i, p := range v.Prices {
		if p.Agent < 0 || p.Agent >= n {
			return fmt.Errorf("game: price multiplier agent %d outside [0, %d)", p.Agent, n)
		}
		if p.Mul.Num() < 1 {
			return fmt.Errorf("game: price multiplier %s for agent %d must be positive", p.Mul, p.Agent)
		}
		if p.Mul.Num() == 1 && p.Mul.Den() == 1 {
			return fmt.Errorf("game: identity multiplier for agent %d is not canonical", p.Agent)
		}
		if m := math.MaxInt64 / (int64(n) * int64(n)); p.Mul.Num() > m || p.Mul.Den() > m {
			return fmt.Errorf("game: price multiplier %s for agent %d has a term above %d, the bound on %d agents",
				p.Mul, p.Agent, m, n)
		}
		if i > 0 && p.Agent <= v.Prices[i-1].Agent {
			return fmt.Errorf("game: price multipliers not sorted by agent")
		}
	}
	return nil
}

// ParseVariant parses the canonical descriptor String renders, so variants
// round-trip through flags, checkpoints, store frames and URLs. The empty
// string and "default" parse to the zero value; otherwise the input is a
// comma-separated list of terms: "bilateral" or "unilateral", "sum" or
// "max", and "mul:AGENT=P/Q" per heterogeneous agent. Conflicting or
// repeated terms are errors.
func ParseVariant(s string) (Variant, error) {
	if s == "" || s == "default" {
		return Variant{}, nil
	}
	var (
		v                   Variant
		sawConsent, sawDist bool
		prices              []AgentPrice
	)
	for _, term := range strings.Split(s, ",") {
		switch {
		case term == "bilateral" || term == "unilateral":
			if sawConsent {
				return Variant{}, fmt.Errorf("game: variant %q repeats a consent term", s)
			}
			sawConsent = true
			if term == "unilateral" {
				v.Consent = ConsentUnilateral
			}
		case term == "sum" || term == "max":
			if sawDist {
				return Variant{}, fmt.Errorf("game: variant %q repeats a distance term", s)
			}
			sawDist = true
			if term == "max" {
				v.Dist = DistMax
			}
		case strings.HasPrefix(term, "mul:"):
			body := term[len("mul:"):]
			eqIdx := strings.IndexByte(body, '=')
			if eqIdx < 0 {
				return Variant{}, fmt.Errorf("game: bad multiplier term %q (want mul:AGENT=P/Q)", term)
			}
			agent, err := strconv.Atoi(body[:eqIdx])
			if err != nil {
				return Variant{}, fmt.Errorf("game: bad multiplier agent in %q", term)
			}
			mul, err := ParseAlpha(body[eqIdx+1:])
			if err != nil {
				return Variant{}, fmt.Errorf("game: bad multiplier price in %q: %v", term, err)
			}
			prices = append(prices, AgentPrice{Agent: agent, Mul: mul})
		case term == "default":
			return Variant{}, fmt.Errorf("game: %q must stand alone in a variant descriptor", term)
		default:
			return Variant{}, fmt.Errorf("game: unknown variant term %q (want bilateral|unilateral, sum|max, mul:AGENT=P/Q)", term)
		}
	}
	return NewVariant(v.Consent, v.Dist, prices)
}

// MulFor returns agent u's price multiplier as an exact p/q pair (1/1 when
// no multiplier is set). Agent u's effective edge price is α·p/q, so her
// improving condition α·(p/q)·ΔBuy + ΔDist < 0 clears denominators as
// α·(p·ΔBuy) + (q·ΔDist) < 0 — which is why both the per-α comparison and
// the certificate breakpoints stay exact rationals in the global α.
func (v Variant) MulFor(u int) (p, q int64) {
	for _, ap := range v.Prices {
		if ap.Agent == u {
			return ap.Mul.Num(), ap.Mul.Den()
		}
		if ap.Agent > u {
			break
		}
	}
	return 1, 1
}

// LessFor reports whether c is strictly cheaper than d for agent u, at her
// effective edge price α·mul(u): both costs are scaled by u's multiplier
// and compared at the global α.
func (gm Game) LessFor(u int, c, d Cost) bool {
	if p, q := gm.Variant.MulFor(u); p != 1 || q != 1 {
		c, d = c.Scale(p, q), d.Scale(p, q)
	}
	return c.Less(d, gm.Alpha)
}
