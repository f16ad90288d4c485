// Package bgp implements the BGP-4 data model and wire codec used by the
// MOAS analysis pipeline: IP prefixes, AS numbers, AS paths with SEQUENCE
// and SET segments, path attributes, and the four BGP-4 message types.
//
// The codec follows RFC 1771/4271 framing with 2-octet AS numbers, matching
// the 1997-2001 era of the study. Decoding follows the gopacket idiom:
// methods decode from byte slices into preallocated values and serialize by
// appending to caller-provided buffers, so hot paths (MRT table parsing)
// allocate only when the decoded value escapes.
package bgp

import (
	"errors"
	"fmt"
	"net/netip"
	"strconv"
	"strings"
)

// Family identifies the address family of a Prefix.
type Family uint8

const (
	// FamilyNone is the zero Family; only the zero Prefix has it.
	FamilyNone Family = iota
	// FamilyIPv4 is the IPv4 address family (AFI 1).
	FamilyIPv4
	// FamilyIPv6 is the IPv6 address family (AFI 2).
	FamilyIPv6
)

// String returns "ipv4", "ipv6" or "none".
func (f Family) String() string {
	switch f {
	case FamilyIPv4:
		return "ipv4"
	case FamilyIPv6:
		return "ipv6"
	}
	return "none"
}

// Prefix is a CIDR prefix. It is a comparable value type usable as a map
// key. Prefixes are canonical: all bits beyond the prefix length are zero,
// enforced at construction.
//
// The zero Prefix is invalid and reported by IsValid.
type Prefix struct {
	addr   [16]byte // network byte order; IPv4 occupies addr[0:4]
	bits   uint8
	family Family
}

// addrBits returns the number of address bits for the family.
func (f Family) addrBits() uint8 {
	switch f {
	case FamilyIPv4:
		return 32
	case FamilyIPv6:
		return 128
	}
	return 0
}

// maskAddr zeroes all bits of a beyond the first bits bits.
func maskAddr(a *[16]byte, bits uint8, total uint8) {
	for i := uint8(0); i < total/8; i++ {
		switch {
		case bits >= 8:
			bits -= 8
		case bits == 0:
			a[i] = 0
		default:
			a[i] &= ^byte(0) << (8 - bits)
			bits = 0
		}
	}
}

// PrefixFrom4 returns the IPv4 prefix addr/bits, canonicalized.
// It panics if bits > 32; construction mistakes are programmer errors.
func PrefixFrom4(addr [4]byte, bits uint8) Prefix {
	if bits > 32 {
		panic("bgp: IPv4 prefix length " + strconv.Itoa(int(bits)) + " > 32")
	}
	var p Prefix
	copy(p.addr[:4], addr[:])
	p.bits = bits
	p.family = FamilyIPv4
	maskAddr(&p.addr, bits, 32)
	return p
}

// PrefixFrom16 returns the IPv6 prefix addr/bits, canonicalized.
// It panics if bits > 128.
func PrefixFrom16(addr [16]byte, bits uint8) Prefix {
	if bits > 128 {
		panic("bgp: IPv6 prefix length " + strconv.Itoa(int(bits)) + " > 128")
	}
	p := Prefix{addr: addr, bits: bits, family: FamilyIPv6}
	maskAddr(&p.addr, bits, 128)
	return p
}

// PrefixFromUint32 returns the IPv4 prefix whose network address is the
// big-endian interpretation of v. It is the fastest constructor and is used
// heavily by the workload generators.
func PrefixFromUint32(v uint32, bits uint8) Prefix {
	return PrefixFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}, bits)
}

// ErrBadPrefix reports an unparseable prefix string.
var ErrBadPrefix = errors.New("bgp: bad prefix")

// ParsePrefix parses "a.b.c.d/len" or an IPv6 "h:h::h/len" form, as
// net/netip spells them: no leading zeros in an octet or a length, no
// zone. Host bits are cleared. An IPv4-mapped address ("::ffff:a.b.c.d")
// is the IPv6 prefix it spells.
func ParsePrefix(s string) (Prefix, error) {
	np, err := netip.ParsePrefix(s)
	if err != nil {
		return Prefix{}, fmt.Errorf("%w: %v", ErrBadPrefix, err)
	}
	a, bits := np.Addr(), uint8(np.Bits())
	if a.Is4() {
		return PrefixFrom4(a.As4(), bits), nil
	}
	return PrefixFrom16(a.As16(), bits), nil
}

// MustParsePrefix is ParsePrefix that panics on error, for tests and
// literals in examples.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// IsValid reports whether p is a constructed (non-zero) prefix.
func (p Prefix) IsValid() bool { return p.family != FamilyNone }

// Family returns the prefix's address family.
func (p Prefix) Family() Family { return p.family }

// Bits returns the prefix length.
func (p Prefix) Bits() uint8 { return p.bits }

// Addr4 returns the network address of an IPv4 prefix.
// It panics for non-IPv4 prefixes.
func (p Prefix) Addr4() [4]byte {
	if p.family != FamilyIPv4 {
		panic("bgp: Addr4 on " + p.family.String() + " prefix")
	}
	return [4]byte(p.addr[:4])
}

// Addr16 returns the network address bytes (IPv4 in the first 4 bytes).
func (p Prefix) Addr16() [16]byte { return p.addr }

// Uint32 returns the IPv4 network address as a big-endian uint32.
// It panics for non-IPv4 prefixes.
func (p Prefix) Uint32() uint32 {
	if p.family != FamilyIPv4 {
		panic("bgp: Uint32 on " + p.family.String() + " prefix")
	}
	return uint32(p.addr[0])<<24 | uint32(p.addr[1])<<16 | uint32(p.addr[2])<<8 | uint32(p.addr[3])
}

// String renders the canonical "addr/len" form. IPv6 is written with all
// eight groups and no "::" (checkpoints pin that form), which ParsePrefix
// reads back.
func (p Prefix) String() string {
	switch p.family {
	case FamilyIPv4:
		var buf [len("255.255.255.255/32")]byte
		return string(netip.PrefixFrom(netip.AddrFrom4(p.Addr4()), int(p.bits)).AppendTo(buf[:0]))
	case FamilyIPv6:
		var b strings.Builder
		for i := 0; i < 16; i += 2 {
			if i > 0 {
				b.WriteByte(':')
			}
			fmt.Fprintf(&b, "%x", uint16(p.addr[i])<<8|uint16(p.addr[i+1]))
		}
		return b.String() + "/" + strconv.Itoa(int(p.bits))
	}
	return "invalid/0"
}

// maxPrefixText bounds the text UnmarshalText will parse (the longest
// canonical form, a full IPv6 address with "/128", is 43 bytes), so a
// hostile document cannot have a megabyte echoed back in the error.
const maxPrefixText = 64

// MarshalText renders the canonical "addr/len" form, which makes a Prefix
// field a string in JSON (encoding.TextMarshaler). The zero Prefix has no
// text form.
func (p Prefix) MarshalText() ([]byte, error) {
	if !p.IsValid() {
		return nil, fmt.Errorf("%w: zero value", ErrBadPrefix)
	}
	return []byte(p.String()), nil
}

// UnmarshalText parses the forms ParsePrefix accepts.
func (p *Prefix) UnmarshalText(text []byte) error {
	if len(text) > maxPrefixText {
		return fmt.Errorf("%w: %d bytes of text", ErrBadPrefix, len(text))
	}
	q, err := ParsePrefix(string(text))
	if err != nil {
		return err
	}
	*p = q
	return nil
}

// Compare orders prefixes by family, then address, then length. It returns
// -1, 0 or +1 and defines the canonical sort used in table dumps.
func (p Prefix) Compare(q Prefix) int {
	switch {
	case p.family < q.family:
		return -1
	case p.family > q.family:
		return 1
	}
	n := int(p.family.addrBits() / 8)
	for i := 0; i < n; i++ {
		switch {
		case p.addr[i] < q.addr[i]:
			return -1
		case p.addr[i] > q.addr[i]:
			return 1
		}
	}
	switch {
	case p.bits < q.bits:
		return -1
	case p.bits > q.bits:
		return 1
	}
	return 0
}

// AppendNLRI appends the BGP NLRI encoding of p (length octet followed by
// ceil(bits/8) address octets) to dst and returns the extended slice.
func (p Prefix) AppendNLRI(dst []byte) []byte {
	dst = append(dst, p.bits)
	return append(dst, p.addr[:(int(p.bits)+7)/8]...)
}

// DecodeNLRI decodes one NLRI-encoded prefix of family f from b, returning
// the prefix and the number of bytes consumed.
func DecodeNLRI(b []byte, f Family) (Prefix, int, error) {
	if len(b) < 1 {
		return Prefix{}, 0, errors.New("bgp: truncated NLRI")
	}
	bits := b[0]
	if bits > f.addrBits() {
		return Prefix{}, 0, fmt.Errorf("bgp: NLRI length %d > %d", bits, f.addrBits())
	}
	n := (int(bits) + 7) / 8
	if len(b) < 1+n {
		return Prefix{}, 0, errors.New("bgp: truncated NLRI body")
	}
	var a [16]byte
	copy(a[:], b[1:1+n])
	if f == FamilyIPv4 {
		return PrefixFrom4([4]byte(a[:4]), bits), 1 + n, nil
	}
	return PrefixFrom16(a, bits), 1 + n, nil
}
