package bgp

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// SegmentType distinguishes the two AS_PATH segment kinds.
type SegmentType uint8

// AS_PATH segment type codes (RFC 4271 §4.3).
const (
	// SegSet is an unordered AS_SET, produced by route aggregation.
	SegSet SegmentType = 1
	// SegSequence is an ordered AS_SEQUENCE.
	SegSequence SegmentType = 2
)

// String returns "seq" or "set".
func (t SegmentType) String() string {
	switch t {
	case SegSet:
		return "set"
	case SegSequence:
		return "seq"
	}
	return "segtype(" + strconv.Itoa(int(t)) + ")"
}

// Segment is one AS_PATH segment: a sequence or a set of AS numbers.
type Segment struct {
	Type SegmentType
	ASes []ASN
}

// Path is a BGP AS path: an ordered list of segments. The common case is a
// single AS_SEQUENCE; aggregation appends AS_SET segments.
//
// In the MOAS methodology the origin is the last AS of the path; paths
// whose final segment is an AS_SET have no single origin and are excluded
// from conflict detection (§III of the paper: 12 of >100k prefixes).
type Path []Segment

// Seq builds a single-sequence path from head to origin, e.g.
// Seq(701, 1239, 8584) has origin AS8584 and first hop AS701.
func Seq(ases ...ASN) Path {
	if len(ases) == 0 {
		return Path{}
	}
	return Path{{Type: SegSequence, ASes: ases}}
}

// Origin returns the origin AS (the final AS of the path) and true, or
// false when the path is empty or terminates in an AS_SET.
func (p Path) Origin() (ASN, bool) {
	if len(p) == 0 {
		return 0, false
	}
	last := p[len(p)-1]
	if last.Type != SegSequence || len(last.ASes) == 0 {
		return 0, false
	}
	return last.ASes[len(last.ASes)-1], true
}

// EndsInSet reports whether the path terminates in a (non-empty) AS_SET —
// the aggregation case the paper excludes from the study.
func (p Path) EndsInSet() bool {
	if len(p) == 0 {
		return false
	}
	last := p[len(p)-1]
	return last.Type == SegSet && len(last.ASes) > 0
}

// Penultimate returns the next-to-last AS of the path — the neighbor of
// the origin — and true, or false when the path has no well-defined
// penultimate sequence AS (shorter than two ASes, or a set in the way).
// The MOAS SplitView classification compares penultimate ASes.
func (p Path) Penultimate() (ASN, bool) {
	if _, ok := p.Origin(); !ok {
		return 0, false
	}
	last := p[len(p)-1]
	if len(last.ASes) >= 2 {
		return last.ASes[len(last.ASes)-2], true
	}
	if len(p) < 2 {
		return 0, false
	}
	prev := p[len(p)-2]
	if prev.Type != SegSequence || len(prev.ASes) == 0 {
		return 0, false
	}
	return prev.ASes[len(prev.ASes)-1], true
}

// Contains reports whether a appears anywhere in the path.
func (p Path) Contains(a ASN) bool {
	for _, s := range p {
		for _, x := range s.ASes {
			if x == a {
				return true
			}
		}
	}
	return false
}

// ContainsLoop reports whether any AS appears more than once across
// sequence segments (prepending aside, a loop indicator used by tests).
func (p Path) ContainsLoop() bool {
	seen := make(map[ASN]bool)
	for _, s := range p {
		if s.Type != SegSequence {
			continue
		}
		prev := ASN(0xFFFFFFFF)
		for _, x := range s.ASes {
			if x == prev { // prepend repetition is not a loop
				continue
			}
			if seen[x] {
				return true
			}
			seen[x] = true
			prev = x
		}
	}
	return false
}

// TransitASes returns every AS on the path except the origin, in order,
// with AS_SET members included. Used by the MOAS conflict classifier: an
// OrigTranAS conflict has one path's origin among the other's transit ASes.
func (p Path) TransitASes() []ASN {
	var out []ASN
	origin, hasOrigin := p.Origin()
	for si, s := range p {
		for ai, x := range s.ASes {
			if hasOrigin && si == len(p)-1 && s.Type == SegSequence && ai == len(s.ASes)-1 {
				continue // skip the origin itself
			}
			_ = origin
			out = append(out, x)
		}
	}
	return out
}

// AllASes returns every AS mentioned in the path in order.
func (p Path) AllASes() []ASN {
	var out []ASN
	for _, s := range p {
		out = append(out, s.ASes...)
	}
	return out
}

// Clone returns a deep copy of the path.
func (p Path) Clone() Path {
	if p == nil {
		return nil
	}
	out := make(Path, len(p))
	for i, s := range p {
		out[i] = Segment{Type: s.Type, ASes: append([]ASN(nil), s.ASes...)}
	}
	return out
}

// Equal reports segment-wise equality.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i].Type != q[i].Type || len(p[i].ASes) != len(q[i].ASes) {
			return false
		}
		for j := range p[i].ASes {
			if p[i].ASes[j] != q[i].ASes[j] {
				return false
			}
		}
	}
	return true
}

// String renders the conventional space-separated form with sets in braces,
// e.g. "701 1239 {7018,3356}".
func (p Path) String() string {
	var b strings.Builder
	for si, s := range p {
		if si > 0 {
			b.WriteByte(' ')
		}
		switch s.Type {
		case SegSequence:
			for ai, x := range s.ASes {
				if ai > 0 {
					b.WriteByte(' ')
				}
				b.WriteString(strconv.FormatUint(uint64(x), 10))
			}
		case SegSet:
			b.WriteByte('{')
			for ai, x := range s.ASes {
				if ai > 0 {
					b.WriteByte(',')
				}
				b.WriteString(strconv.FormatUint(uint64(x), 10))
			}
			b.WriteByte('}')
		}
	}
	return b.String()
}

// ParsePath parses the String form: space-separated AS numbers with
// brace-delimited comma-separated sets, e.g. "701 1239 {7018,3356} 64512".
func ParsePath(s string) (Path, error) {
	var p Path
	fields := strings.Fields(s)
	var seq []ASN
	flush := func() {
		if len(seq) > 0 {
			p = append(p, Segment{Type: SegSequence, ASes: seq})
			seq = nil
		}
	}
	for _, f := range fields {
		if strings.HasPrefix(f, "{") {
			if !strings.HasSuffix(f, "}") {
				return nil, fmt.Errorf("bgp: bad AS set %q", f)
			}
			flush()
			var set []ASN
			for _, t := range strings.Split(f[1:len(f)-1], ",") {
				if t == "" {
					continue
				}
				v, err := strconv.ParseUint(t, 10, 32)
				if err != nil {
					return nil, fmt.Errorf("bgp: bad ASN %q in set", t)
				}
				set = append(set, ASN(v))
			}
			p = append(p, Segment{Type: SegSet, ASes: set})
			continue
		}
		v, err := strconv.ParseUint(f, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bgp: bad ASN %q", f)
		}
		seq = append(seq, ASN(v))
	}
	flush()
	return p, nil
}

// MustParsePath is ParsePath that panics on error, for tests and examples.
func MustParsePath(s string) Path {
	p, err := ParsePath(s)
	if err != nil {
		panic(err)
	}
	return p
}

// AppendWire appends the 2-octet-ASN wire encoding of the path (the body of
// an AS_PATH attribute) to dst. Segments longer than 255 ASes are split.
func (p Path) AppendWire(dst []byte) []byte { return p.appendWireSized(dst, 2) }

// AppendWire4 appends the 4-octet-ASN encoding used by MRT TABLE_DUMP_V2
// (RFC 6396 §4.3.4) and AS4_PATH.
func (p Path) AppendWire4(dst []byte) []byte { return p.appendWireSized(dst, 4) }

// appendWireSized writes each segment as one or more wire segments of
// at most 255 ASes. An empty segment, which a decoded path keeps, is
// written too: dropping it would change the path's origin (Origin
// reads the last segment) across an encode and decode.
func (p Path) appendWireSized(dst []byte, size int) []byte {
	for _, s := range p {
		ases := s.ASes
		for {
			n := min(len(ases), 255)
			dst = append(dst, byte(s.Type), byte(n))
			for _, a := range ases[:n] {
				if size == 4 {
					dst = append(dst, byte(a>>24), byte(a>>16))
				}
				dst = append(dst, byte(a>>8), byte(a))
			}
			if ases = ases[n:]; len(ases) == 0 {
				break
			}
		}
	}
	return dst
}

// ErrBadPath reports a malformed AS_PATH wire encoding.
var ErrBadPath = errors.New("bgp: bad AS_PATH encoding")

// DecodePathWire decodes a 2-octet-ASN AS_PATH attribute body.
func DecodePathWire(b []byte) (Path, error) { return decodePathSizedInto(nil, b, 2) }

// DecodePathWire4 decodes a 4-octet-ASN AS_PATH attribute body
// (TABLE_DUMP_V2 / AS4_PATH encoding).
func DecodePathWire4(b []byte) (Path, error) { return decodePathSizedInto(nil, b, 4) }

// decodePathSizedInto is the one AS_PATH walker. It decodes into dst's
// storage: segments land in dst's existing slots, each slot keeping its
// previous ASes backing array, so decoding a stream of paths through one
// scratch Path is allocation-free in steady state. Reuse is only sound
// when nothing aliases dst's old contents (the AttrsInterner's scratch
// decode); a nil dst is the allocating case, every AS array sized exactly.
func decodePathSizedInto(dst Path, b []byte, size int) (Path, error) {
	dst = dst[:0]
	for len(b) > 0 {
		if len(b) < 2 {
			return nil, fmt.Errorf("%w: truncated segment header", ErrBadPath)
		}
		t, n := SegmentType(b[0]), int(b[1])
		if t != SegSet && t != SegSequence {
			return nil, fmt.Errorf("%w: segment type %d", ErrBadPath, t)
		}
		b = b[2:]
		if len(b) < size*n {
			return nil, fmt.Errorf("%w: truncated segment body", ErrBadPath)
		}
		if len(dst) < cap(dst) {
			dst = dst[:len(dst)+1]
		} else {
			dst = append(dst, Segment{})
		}
		seg := &dst[len(dst)-1]
		seg.Type = t
		if cap(seg.ASes) < n {
			seg.ASes = make([]ASN, n)
		}
		seg.ASes = seg.ASes[:n]
		for i := range seg.ASes {
			if size == 4 {
				seg.ASes[i] = ASN(be32(b[4*i:]))
			} else {
				seg.ASes[i] = ASN(b[2*i])<<8 | ASN(b[2*i+1])
			}
		}
		b = b[size*n:]
	}
	return dst, nil
}
