package store

import (
	"encoding/binary"
	"fmt"

	"repro/internal/exact"
)

// Record is one persisted stability verdict: the canonical form of the
// graph, the exact reduced edge price num/den, the solution concept (as
// its small positive enum value), the game variant (as its canonical
// descriptor string, empty for the paper's default model), and the
// verdict bit. The store is deliberately decoupled from package eq and
// game — Concept is an opaque uint8 and Variant an opaque canonical
// token here, mapped back by the sweep-cache bridge.
type Record struct {
	Canon    string
	Num, Den int64
	Concept  uint8
	Variant  string
	Stable   bool
}

// Key identifies a record; two records with equal keys must agree on
// Stable. Records of distinct variants are distinct keys — the same
// class and price can be stable in one model and unstable in another.
type Key struct {
	Canon    string
	Num, Den int64
	Concept  uint8
	Variant  string
}

// Key returns r's identity.
func (r Record) Key() Key {
	return Key{Canon: r.Canon, Num: r.Num, Den: r.Den, Concept: r.Concept, Variant: r.Variant}
}

func (k Key) less(o Key) bool {
	if k.Variant != o.Variant {
		// Default-variant records ("") sort first, so legacy dumps are
		// byte-identical and variants group together.
		return k.Variant < o.Variant
	}
	if k.Canon != o.Canon {
		return k.Canon < o.Canon
	}
	if k.Num != o.Num {
		return k.Num < o.Num
	}
	if k.Den != o.Den {
		return k.Den < o.Den
	}
	return k.Concept < o.Concept
}

// Validate reports whether r can be encoded: a non-empty canonical key
// that fits a frame, a canonical non-negative reduced price, and a
// non-zero concept.
func (r Record) Validate() error {
	if r.Canon == "" {
		return fmt.Errorf("store: record with empty canonical key")
	}
	if len(r.Canon) > maxFrameBytes-32 {
		return fmt.Errorf("store: canonical key of %d bytes exceeds the frame cap", len(r.Canon))
	}
	if r.Num < 0 || r.Num > maxRat || r.Den <= 0 || r.Den > maxRat {
		// The bounds mirror decodeRecord's: a record that validates but
		// cannot decode would truncate recovery at its frame.
		return fmt.Errorf("store: record with invalid price %d/%d", r.Num, r.Den)
	}
	if r.Concept == 0 {
		return fmt.Errorf("store: record with zero concept")
	}
	return validVariant(r.Variant)
}

// maxVariantBytes caps the encoded variant descriptor, so a corrupt
// length cannot force a huge allocation during recovery.
const maxVariantBytes = 1 << 10

// validVariant vets a variant token: the empty string (the default
// variant) or a short printable-ASCII descriptor with no spaces — the
// shape game.Variant.Key() produces. The store does not parse the
// descriptor (it is decoupled from package game, as with Concept); the
// sweep-cache bridge rejects descriptors that do not parse canonically.
func validVariant(v string) error {
	if len(v) > maxVariantBytes {
		return fmt.Errorf("store: variant descriptor of %d bytes exceeds the cap", len(v))
	}
	for i := 0; i < len(v); i++ {
		if v[i] <= ' ' || v[i] > '~' {
			return fmt.Errorf("store: variant descriptor with non-printable byte 0x%02x", v[i])
		}
	}
	return nil
}

// Interval is one exact α interval of a persisted certificate. Endpoints
// are non-negative reduced rationals; HiInf marks an unbounded interval.
// The store is deliberately decoupled from package eq — the sweep-cache
// bridge maps these to eq.AlphaInterval.
type Interval struct {
	LoNum, LoDen   int64
	HiNum, HiDen   int64
	LoOpen, HiOpen bool
	HiInf          bool
}

// CertRecord is one persisted stability certificate: the exact set of
// edge prices (a sorted union of disjoint intervals) at which the class
// identified by Canon is stable for Concept. One certificate record
// replaces an entire per-α row of verdict Records — the economy of the
// parametric sweep engine.
type CertRecord struct {
	Canon     string
	Concept   uint8
	Variant   string
	Intervals []Interval
}

// CertKey identifies a certificate; two records with equal keys must
// agree on their interval sets. Certificates of distinct variants are
// distinct keys.
type CertKey struct {
	Canon   string
	Concept uint8
	Variant string
}

// Key returns r's identity.
func (r CertRecord) Key() CertKey {
	return CertKey{Canon: r.Canon, Concept: r.Concept, Variant: r.Variant}
}

func (k CertKey) less(o CertKey) bool {
	if k.Variant != o.Variant {
		return k.Variant < o.Variant
	}
	if k.Canon != o.Canon {
		return k.Canon < o.Canon
	}
	return k.Concept < o.Concept
}

// maxRat bounds every encoded rational component; decode rejects larger
// values, so Validate must too — a record that validates but cannot
// decode would truncate recovery at its frame and silently drop every
// later frame in the shard.
const maxRat = 1 << 62

// ratCmp compares a/b with c/d (positive denominators) exactly.
func ratCmp(a, b, c, d int64) int { return exact.Cmp(a, d, c, b) }

// Validate reports whether r can be encoded AND decoded: a non-empty
// canonical key that fits a frame, a non-zero concept, and non-empty,
// sorted, pairwise-disjoint intervals with in-range endpoints. The
// sweep-cache bridge rebuilds an eq.AlphaSet from these intervals and
// panics on malformed shapes, so the store must refuse them at Put — a
// bad certificate fails loudly here, never at a later warm-start.
func (r CertRecord) Validate() error {
	if r.Canon == "" {
		return fmt.Errorf("store: certificate with empty canonical key")
	}
	if len(r.Canon) > maxFrameBytes-64 {
		return fmt.Errorf("store: canonical key of %d bytes exceeds the frame cap", len(r.Canon))
	}
	if r.Concept == 0 {
		return fmt.Errorf("store: certificate with zero concept")
	}
	if err := validVariant(r.Variant); err != nil {
		return err
	}
	if len(r.Intervals) > maxCertIntervals {
		return fmt.Errorf("store: certificate with %d intervals exceeds the cap", len(r.Intervals))
	}
	for i, iv := range r.Intervals {
		if iv.LoNum < 0 || iv.LoNum > maxRat || iv.LoDen <= 0 || iv.LoDen > maxRat {
			return fmt.Errorf("store: certificate interval %d with invalid lower bound %d/%d", i, iv.LoNum, iv.LoDen)
		}
		if iv.HiInf {
			if iv.HiNum != 0 || iv.HiDen != 0 || iv.HiOpen {
				return fmt.Errorf("store: certificate interval %d with non-canonical unbounded form", i)
			}
		} else {
			if iv.HiNum < 0 || iv.HiNum > maxRat || iv.HiDen <= 0 || iv.HiDen > maxRat {
				return fmt.Errorf("store: certificate interval %d with invalid upper bound %d/%d", i, iv.HiNum, iv.HiDen)
			}
			switch c := ratCmp(iv.LoNum, iv.LoDen, iv.HiNum, iv.HiDen); {
			case c > 0:
				return fmt.Errorf("store: certificate interval %d is inverted", i)
			case c == 0:
				if iv.LoOpen || iv.HiOpen {
					return fmt.Errorf("store: certificate interval %d is empty", i)
				}
			}
		}
		if i > 0 {
			prev := r.Intervals[i-1]
			if prev.HiInf {
				return fmt.Errorf("store: certificate interval %d after an unbounded one", i)
			}
			switch c := ratCmp(prev.HiNum, prev.HiDen, iv.LoNum, iv.LoDen); {
			case c > 0:
				return fmt.Errorf("store: certificate intervals %d and %d out of order", i-1, i)
			case c == 0:
				if !prev.HiOpen && !iv.LoOpen {
					return fmt.Errorf("store: certificate intervals %d and %d touch with both endpoints closed", i-1, i)
				}
			}
		}
	}
	return nil
}

// equalIntervals reports whether two persisted certificates describe the
// same α set, endpoint for endpoint.
func equalIntervals(a, b []Interval) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Contains reports whether the exact price num/den (den > 0) lies in the
// certificate's stable set — exact cross-multiplication, no floats.
func (r CertRecord) Contains(num, den int64) bool {
	for _, iv := range r.Intervals {
		// Below the lower bound?
		lo := ratCmp(iv.LoNum, iv.LoDen, num, den) // sign of Lo − α
		if lo > 0 || (lo == 0 && iv.LoOpen) {
			continue
		}
		if iv.HiInf {
			return true
		}
		hi := ratCmp(num, den, iv.HiNum, iv.HiDen) // sign of α − Hi
		if hi < 0 || (hi == 0 && !iv.HiOpen) {
			return true
		}
	}
	return false
}

// maxCertIntervals caps the interval count of one persisted certificate,
// so a corrupt count cannot force a huge allocation during recovery.
const maxCertIntervals = 1 << 12

// certKind is the frame-payload discriminator of certificate records: a
// leading 0x00 byte. Legacy verdict payloads always start with a non-zero
// uvarint (the canonical-key length), so the two encodings cannot be
// confused and v1 stores open unchanged.
const certKind = 0x00

// Variant-tagged frames (codec v2) escape through the certificate
// discriminator one level deeper: the payload starts 0x00 0x00 — a shape
// no legacy frame can produce, because a legacy certificate's second byte
// is the uvarint length of its non-empty canonical key — followed by a
// kind byte, the uvarint-length-prefixed variant descriptor, and then the
// complete legacy payload of the wrapped record. Default-variant records
// never use the escape: they encode byte-identically to codec v1, which
// is what keeps legacy stores and the default-variant differential dumps
// exact.
const (
	extMagic   = 0x00 // second byte of an extended payload (after certKind)
	extVerdict = 0x01 // extended kind: variant-tagged verdict
	extCert    = 0x02 // extended kind: variant-tagged certificate
)

// encodeRecord renders the frame payload:
//
//	uvarint len(canon) | canon | uvarint num | uvarint den | concept | stable
//
// prefixed, for non-default variants only, by the extension header
//
//	0x00 0x00 0x01 | uvarint len(variant) | variant
func encodeRecord(r Record) []byte {
	buf := make([]byte, 0, binary.MaxVarintLen64*4+len(r.Canon)+len(r.Variant)+5)
	if r.Variant != "" {
		buf = append(buf, certKind, extMagic, extVerdict)
		buf = binary.AppendUvarint(buf, uint64(len(r.Variant)))
		buf = append(buf, r.Variant...)
	}
	buf = binary.AppendUvarint(buf, uint64(len(r.Canon)))
	buf = append(buf, r.Canon...)
	buf = binary.AppendUvarint(buf, uint64(r.Num))
	buf = binary.AppendUvarint(buf, uint64(r.Den))
	buf = append(buf, r.Concept)
	if r.Stable {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	return buf
}

// decodeRecord parses a frame payload. It rejects trailing garbage and
// any record Validate would refuse, so a CRC-valid frame either decodes
// to a well-formed record or truncates recovery at that point.
func decodeRecord(b []byte) (Record, error) {
	clen, n := binary.Uvarint(b)
	if n <= 0 || clen == 0 || uint64(len(b)-n) < clen {
		return Record{}, fmt.Errorf("store: bad canonical-key length")
	}
	b = b[n:]
	rec := Record{Canon: string(b[:clen])}
	b = b[clen:]
	num, n := binary.Uvarint(b)
	if n <= 0 || num > 1<<62 {
		return Record{}, fmt.Errorf("store: bad numerator")
	}
	b = b[n:]
	den, n := binary.Uvarint(b)
	if n <= 0 || den > 1<<62 {
		return Record{}, fmt.Errorf("store: bad denominator")
	}
	b = b[n:]
	if len(b) != 2 || b[1] > 1 {
		return Record{}, fmt.Errorf("store: bad record trailer")
	}
	rec.Num, rec.Den = int64(num), int64(den)
	rec.Concept = b[0]
	rec.Stable = b[1] == 1
	if err := rec.Validate(); err != nil {
		return Record{}, err
	}
	return rec, nil
}

// encodeCertRecord renders a certificate frame payload:
//
//	0x00 | uvarint len(canon) | canon | concept | uvarint count |
//	per interval: flags | uvarint loNum | uvarint loDen
//	              [ uvarint hiNum | uvarint hiDen  when not HiInf ]
//
// flags: bit0 LoOpen, bit1 HiOpen, bit2 HiInf. Non-default variants
// prefix the extension header 0x00 0x00 0x02 | uvarint len(variant) |
// variant before the legacy payload above.
func encodeCertRecord(r CertRecord) []byte {
	buf := make([]byte, 0, 8+len(r.Canon)+len(r.Variant)+len(r.Intervals)*(1+4*binary.MaxVarintLen64))
	if r.Variant != "" {
		buf = append(buf, certKind, extMagic, extCert)
		buf = binary.AppendUvarint(buf, uint64(len(r.Variant)))
		buf = append(buf, r.Variant...)
	}
	buf = append(buf, certKind)
	buf = binary.AppendUvarint(buf, uint64(len(r.Canon)))
	buf = append(buf, r.Canon...)
	buf = append(buf, r.Concept)
	buf = binary.AppendUvarint(buf, uint64(len(r.Intervals)))
	for _, iv := range r.Intervals {
		var flags byte
		if iv.LoOpen {
			flags |= 1
		}
		if iv.HiOpen {
			flags |= 2
		}
		if iv.HiInf {
			flags |= 4
		}
		buf = append(buf, flags)
		buf = binary.AppendUvarint(buf, uint64(iv.LoNum))
		buf = binary.AppendUvarint(buf, uint64(iv.LoDen))
		if !iv.HiInf {
			buf = binary.AppendUvarint(buf, uint64(iv.HiNum))
			buf = binary.AppendUvarint(buf, uint64(iv.HiDen))
		}
	}
	return buf
}

// decodeExtended parses the header of an extended (variant-tagged)
// payload, returning the variant descriptor, the extended kind and the
// wrapped legacy payload. The wrapped payload is handed to the legacy
// decoders unchanged, so extended frames cannot drift from the v1 codec
// — and a nested extension header inside the body fails naturally in
// those decoders (a zero canonical-key length).
func decodeExtended(b []byte) (variant string, kind byte, body []byte, err error) {
	if len(b) < 3 || b[0] != certKind || b[1] != extMagic {
		return "", 0, nil, fmt.Errorf("store: not an extended payload")
	}
	kind = b[2]
	if kind != extVerdict && kind != extCert {
		return "", 0, nil, fmt.Errorf("store: unknown extended frame kind 0x%02x", kind)
	}
	b = b[3:]
	vlen, n := binary.Uvarint(b)
	if n <= 0 || vlen == 0 || vlen > maxVariantBytes || uint64(len(b)-n) < vlen {
		return "", 0, nil, fmt.Errorf("store: bad variant descriptor length")
	}
	variant = string(b[n : n+int(vlen)])
	if err := validVariant(variant); err != nil {
		return "", 0, nil, err
	}
	return variant, kind, b[n+int(vlen):], nil
}

// decodeCertRecord parses a certificate frame payload (after the leading
// kind byte has been recognized, but including it in b). It rejects
// trailing garbage and any record Validate would refuse.
func decodeCertRecord(b []byte) (CertRecord, error) {
	if len(b) == 0 || b[0] != certKind {
		return CertRecord{}, fmt.Errorf("store: not a certificate payload")
	}
	b = b[1:]
	clen, n := binary.Uvarint(b)
	if n <= 0 || clen == 0 || uint64(len(b)-n) < clen {
		return CertRecord{}, fmt.Errorf("store: bad certificate canonical-key length")
	}
	b = b[n:]
	rec := CertRecord{Canon: string(b[:clen])}
	b = b[clen:]
	if len(b) < 1 {
		return CertRecord{}, fmt.Errorf("store: truncated certificate")
	}
	rec.Concept = b[0]
	b = b[1:]
	count, n := binary.Uvarint(b)
	if n <= 0 || count > maxCertIntervals {
		return CertRecord{}, fmt.Errorf("store: bad certificate interval count")
	}
	b = b[n:]
	readRat := func() (int64, bool) {
		v, n := binary.Uvarint(b)
		if n <= 0 || v > 1<<62 {
			return 0, false
		}
		b = b[n:]
		return int64(v), true
	}
	rec.Intervals = make([]Interval, 0, count)
	for i := uint64(0); i < count; i++ {
		if len(b) < 1 {
			return CertRecord{}, fmt.Errorf("store: truncated certificate interval")
		}
		flags := b[0]
		if flags > 7 {
			return CertRecord{}, fmt.Errorf("store: bad certificate interval flags")
		}
		b = b[1:]
		iv := Interval{LoOpen: flags&1 != 0, HiOpen: flags&2 != 0, HiInf: flags&4 != 0}
		var ok bool
		if iv.LoNum, ok = readRat(); !ok {
			return CertRecord{}, fmt.Errorf("store: bad certificate endpoint")
		}
		if iv.LoDen, ok = readRat(); !ok {
			return CertRecord{}, fmt.Errorf("store: bad certificate endpoint")
		}
		if !iv.HiInf {
			if iv.HiNum, ok = readRat(); !ok {
				return CertRecord{}, fmt.Errorf("store: bad certificate endpoint")
			}
			if iv.HiDen, ok = readRat(); !ok {
				return CertRecord{}, fmt.Errorf("store: bad certificate endpoint")
			}
		}
		rec.Intervals = append(rec.Intervals, iv)
	}
	if len(b) != 0 {
		return CertRecord{}, fmt.Errorf("store: trailing bytes after certificate")
	}
	if err := rec.Validate(); err != nil {
		return CertRecord{}, err
	}
	return rec, nil
}
