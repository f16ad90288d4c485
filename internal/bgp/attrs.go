package bgp

import (
	"errors"
	"fmt"
	"slices"
)

// Origin is the BGP ORIGIN attribute value.
type Origin uint8

// ORIGIN codes (RFC 4271 §5.1.1).
const (
	OriginIGP        Origin = 0
	OriginEGP        Origin = 1
	OriginIncomplete Origin = 2
)

// String returns the bgpdump-style single-word form.
func (o Origin) String() string {
	switch o {
	case OriginIGP:
		return "IGP"
	case OriginEGP:
		return "EGP"
	case OriginIncomplete:
		return "INCOMPLETE"
	}
	return fmt.Sprintf("ORIGIN(%d)", uint8(o))
}

// Path attribute type codes (RFC 4271 §5).
const (
	AttrOrigin          = 1
	AttrASPath          = 2
	AttrNextHop         = 3
	AttrMED             = 4
	AttrLocalPref       = 5
	AttrAtomicAggregate = 6
	AttrAggregator      = 7
	AttrCommunities     = 8 // RFC 1997
)

// Attribute flag bits.
const (
	flagOptional   = 0x80
	flagTransitive = 0x40
	flagPartial    = 0x20
	flagExtLen     = 0x10
)

// Aggregator is the AGGREGATOR attribute: the AS and router that formed an
// aggregate route.
type Aggregator struct {
	AS   ASN
	Addr [4]byte
}

// Attrs carries the decoded path attributes of a route. Presence of the
// optional numeric attributes is tracked by the Has* flags so that zero
// values remain representable.
//
// The fields are ordered by size — slices and the pointer, then the
// 4-byte fields, then the 1-byte ones — so the struct packs into 72
// bytes with no padding (TestAttrsSize); every block the interner holds
// is one of these.
type Attrs struct {
	ASPath      Path
	Communities []uint32
	Aggregator  *Aggregator

	NextHop   [4]byte
	MED       uint32
	LocalPref uint32

	Origin          Origin
	HasMED          bool
	HasLocalPref    bool
	AtomicAggregate bool
}

// Clone returns a deep copy of a.
func (a *Attrs) Clone() *Attrs {
	if a == nil {
		return nil
	}
	out := *a
	out.ASPath = a.ASPath.Clone()
	if a.Aggregator != nil {
		agg := *a.Aggregator
		out.Aggregator = &agg
	}
	out.Communities = append([]uint32(nil), a.Communities...)
	return &out
}

// Equal reports deep equality of two attribute sets.
func (a *Attrs) Equal(b *Attrs) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Origin != b.Origin || a.NextHop != b.NextHop ||
		a.HasMED != b.HasMED || (a.HasMED && a.MED != b.MED) ||
		a.HasLocalPref != b.HasLocalPref || (a.HasLocalPref && a.LocalPref != b.LocalPref) ||
		a.AtomicAggregate != b.AtomicAggregate {
		return false
	}
	if (a.Aggregator == nil) != (b.Aggregator == nil) {
		return false
	}
	if a.Aggregator != nil && *a.Aggregator != *b.Aggregator {
		return false
	}
	if len(a.Communities) != len(b.Communities) {
		return false
	}
	for i := range a.Communities {
		if a.Communities[i] != b.Communities[i] {
			return false
		}
	}
	return a.ASPath.Equal(b.ASPath)
}

func appendAttrHeader(dst []byte, flags, code byte, bodyLen int) []byte {
	if bodyLen > 255 {
		return append(dst, flags|flagExtLen, code, byte(bodyLen>>8), byte(bodyLen))
	}
	return append(dst, flags, code, byte(bodyLen))
}

// AppendWire appends the RFC 4271 wire encoding of the attribute set to dst
// in canonical (ascending type code) order, with 2-octet AS numbers.
func (a *Attrs) AppendWire(dst []byte) []byte { return a.AppendWireEx(dst, false) }

// AppendWireEx is AppendWire with selectable ASN width: asn4 selects the
// 4-octet encoding used inside MRT TABLE_DUMP_V2 RIB entries.
func (a *Attrs) AppendWireEx(dst []byte, asn4 bool) []byte {
	// ORIGIN: well-known mandatory.
	dst = appendAttrHeader(dst, flagTransitive, AttrOrigin, 1)
	dst = append(dst, byte(a.Origin))

	// AS_PATH: well-known mandatory.
	var body []byte
	if asn4 {
		body = a.ASPath.AppendWire4(nil)
	} else {
		body = a.ASPath.AppendWire(nil)
	}
	dst = appendAttrHeader(dst, flagTransitive, AttrASPath, len(body))
	dst = append(dst, body...)

	// NEXT_HOP: well-known mandatory.
	dst = appendAttrHeader(dst, flagTransitive, AttrNextHop, 4)
	dst = append(dst, a.NextHop[:]...)

	if a.HasMED {
		dst = appendAttrHeader(dst, flagOptional, AttrMED, 4)
		dst = append(dst, byte(a.MED>>24), byte(a.MED>>16), byte(a.MED>>8), byte(a.MED))
	}
	if a.HasLocalPref {
		dst = appendAttrHeader(dst, flagTransitive, AttrLocalPref, 4)
		dst = append(dst, byte(a.LocalPref>>24), byte(a.LocalPref>>16), byte(a.LocalPref>>8), byte(a.LocalPref))
	}
	if a.AtomicAggregate {
		dst = appendAttrHeader(dst, flagTransitive, AttrAtomicAggregate, 0)
	}
	if a.Aggregator != nil {
		if asn4 {
			dst = appendAttrHeader(dst, flagOptional|flagTransitive, AttrAggregator, 8)
			dst = append(dst, byte(a.Aggregator.AS>>24), byte(a.Aggregator.AS>>16))
		} else {
			dst = appendAttrHeader(dst, flagOptional|flagTransitive, AttrAggregator, 6)
		}
		dst = append(dst, byte(a.Aggregator.AS>>8), byte(a.Aggregator.AS))
		dst = append(dst, a.Aggregator.Addr[:]...)
	}
	if len(a.Communities) > 0 {
		dst = appendAttrHeader(dst, flagOptional|flagTransitive, AttrCommunities, 4*len(a.Communities))
		for _, c := range a.Communities {
			dst = append(dst, byte(c>>24), byte(c>>16), byte(c>>8), byte(c))
		}
	}
	return dst
}

// ErrBadAttrs reports a malformed path attribute block.
var ErrBadAttrs = errors.New("bgp: bad path attributes")

// DecodeAttrs decodes an RFC 4271 path attribute block into a, overwriting
// its previous contents. Unknown optional attributes are skipped; unknown
// well-known attributes are an error.
func (a *Attrs) DecodeAttrs(b []byte) error { return a.DecodeAttrsEx(b, false) }

// DecodeAttrsEx is DecodeAttrs with selectable ASN width (see AppendWireEx).
func (a *Attrs) DecodeAttrsEx(b []byte, asn4 bool) error {
	*a = Attrs{} // the caller may still hold the old contents: recycle nothing
	return a.decodeAttrsInto(b, asn4)
}

// decodeAttrsInto is the shared implementation. It recycles a's previous
// backing storage — path segments (including their AS arrays), the
// communities slice and the aggregator value — so decoding a stream of
// blocks through one scratch Attrs allocates nothing in steady state.
// That is only sound when nothing else aliases a's old contents; the
// AttrsInterner's scratch is the intended caller. A zero a is the
// allocating case. A block without COMMUNITIES leaves an empty slice over
// the old backing rather than nil, so a stream that mixes blocks with
// and without them keeps one backing.
func (a *Attrs) decodeAttrsInto(b []byte, asn4 bool) error {
	old := *a
	*a = Attrs{Communities: old.Communities[:0]}
	for len(b) > 0 {
		if len(b) < 3 {
			return fmt.Errorf("%w: truncated header", ErrBadAttrs)
		}
		flags, code := b[0], b[1]
		var bodyLen, hdrLen int
		if flags&flagExtLen != 0 {
			if len(b) < 4 {
				return fmt.Errorf("%w: truncated extended length", ErrBadAttrs)
			}
			bodyLen, hdrLen = int(b[2])<<8|int(b[3]), 4
		} else {
			bodyLen, hdrLen = int(b[2]), 3
		}
		if len(b) < hdrLen+bodyLen {
			return fmt.Errorf("%w: attribute %d body truncated", ErrBadAttrs, code)
		}
		body := b[hdrLen : hdrLen+bodyLen]
		b = b[hdrLen+bodyLen:]

		switch code {
		case AttrOrigin:
			if len(body) != 1 {
				return fmt.Errorf("%w: ORIGIN length %d", ErrBadAttrs, len(body))
			}
			a.Origin = Origin(body[0])
		case AttrASPath:
			size := 2
			if asn4 {
				size = 4
			}
			p, err := decodePathSizedInto(old.ASPath, body, size)
			if err != nil {
				return err
			}
			a.ASPath = p
		case AttrNextHop:
			if len(body) != 4 {
				return fmt.Errorf("%w: NEXT_HOP length %d", ErrBadAttrs, len(body))
			}
			copy(a.NextHop[:], body)
		case AttrMED:
			if len(body) != 4 {
				return fmt.Errorf("%w: MED length %d", ErrBadAttrs, len(body))
			}
			a.MED = be32(body)
			a.HasMED = true
		case AttrLocalPref:
			if len(body) != 4 {
				return fmt.Errorf("%w: LOCAL_PREF length %d", ErrBadAttrs, len(body))
			}
			a.LocalPref = be32(body)
			a.HasLocalPref = true
		case AttrAtomicAggregate:
			if len(body) != 0 {
				return fmt.Errorf("%w: ATOMIC_AGGREGATE length %d", ErrBadAttrs, len(body))
			}
			a.AtomicAggregate = true
		case AttrAggregator:
			want := 6
			if asn4 {
				want = 8
			}
			if len(body) != want {
				return fmt.Errorf("%w: AGGREGATOR length %d", ErrBadAttrs, len(body))
			}
			var agg Aggregator
			if asn4 {
				agg.AS = ASN(be32(body))
				copy(agg.Addr[:], body[4:8])
			} else {
				agg.AS = ASN(body[0])<<8 | ASN(body[1])
				copy(agg.Addr[:], body[2:6])
			}
			if old.Aggregator != nil {
				*old.Aggregator = agg
				a.Aggregator = old.Aggregator
			} else {
				a.Aggregator = &agg
			}
		case AttrCommunities:
			if len(body)%4 != 0 {
				return fmt.Errorf("%w: COMMUNITIES length %d", ErrBadAttrs, len(body))
			}
			a.Communities = slices.Grow(old.Communities[:0], len(body)/4)
			for i := 0; i+4 <= len(body); i += 4 {
				a.Communities = append(a.Communities, be32(body[i:]))
			}
		default:
			if flags&flagOptional == 0 {
				return fmt.Errorf("%w: unknown well-known attribute %d", ErrBadAttrs, code)
			}
			// Unknown optional attribute: skip (partial bit intentionally
			// not re-serialized; this decoder is analysis-only).
		}
	}
	return nil
}

func be32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}
