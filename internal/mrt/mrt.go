// Package mrt implements the MRT routing information export format
// (RFC 6396) used by the Route Views and RIPE RIS archives the paper
// analyzed: TABLE_DUMP (the 1997-2001-era daily snapshot format),
// TABLE_DUMP_V2 (the modern replacement) and BGP4MP update traces.
//
// The package provides the one way in for an archive — Open, which
// decompresses gzip by content, and a streaming Framer over raw records —
// a streaming Writer, and typed encode/decode for each record kind, in
// the gopacket style: decode into preallocated values, serialize by
// appending to buffers.
package mrt

import (
	"errors"
	"fmt"

	"moas/internal/bgp"
)

// Type is an MRT record type code.
type Type uint16

// MRT record types used by this library (RFC 6396 §4).
const (
	TypeTableDump   Type = 12
	TypeTableDumpV2 Type = 13
	TypeBGP4MP      Type = 16
)

// String names the record type.
func (t Type) String() string {
	switch t {
	case TypeTableDump:
		return "TABLE_DUMP"
	case TypeTableDumpV2:
		return "TABLE_DUMP_V2"
	case TypeBGP4MP:
		return "BGP4MP"
	}
	return fmt.Sprintf("TYPE(%d)", uint16(t))
}

// TABLE_DUMP subtypes are the address family identifiers.
const (
	SubtypeAFIIPv4 uint16 = 1
	SubtypeAFIIPv6 uint16 = 2
)

// TABLE_DUMP_V2 subtypes (RFC 6396 §4.3).
const (
	SubtypePeerIndexTable uint16 = 1
	SubtypeRIBIPv4Unicast uint16 = 2
	SubtypeRIBIPv6Unicast uint16 = 4
)

// BGP4MP subtypes (RFC 6396 §4.4).
const (
	SubtypeStateChange uint16 = 0
	SubtypeMessage     uint16 = 1
)

// Header is the 12-byte MRT common header.
type Header struct {
	Timestamp uint32 // seconds since the Unix epoch
	Type      Type
	Subtype   uint16
	Length    uint32 // body length, excluding the header
}

// CarriesMessage reports whether a record with header h holds a BGP
// message — today a BGP4MP_MESSAGE. It is the one such test: every
// update-stream consumer (the replay's decoder, the archive calendar)
// asks it, so a new message subtype is added here once.
func (h Header) CarriesMessage() bool {
	return h.Type == TypeBGP4MP && h.Subtype == SubtypeMessage
}

// headerLen is the encoded size of the common header.
const headerLen = 12

// maxRecordLen bounds a record body; real table dumps stay far below it and
// the cap keeps a corrupt length field from driving huge allocations.
const maxRecordLen = 1 << 24

// ErrBadRecord reports a structurally invalid MRT record.
var ErrBadRecord = errors.New("mrt: bad record")

// appendUint helpers keep encode sites readable.
func appendU16(dst []byte, v uint16) []byte { return append(dst, byte(v>>8), byte(v)) }
func appendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func u16(b []byte) uint16 { return uint16(b[0])<<8 | uint16(b[1]) }
func u32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// AppendHeader appends the wire form of h to dst.
func (h Header) AppendHeader(dst []byte) []byte {
	dst = appendU32(dst, h.Timestamp)
	dst = appendU16(dst, uint16(h.Type))
	dst = appendU16(dst, h.Subtype)
	return appendU32(dst, h.Length)
}

// decodeHeader decodes the 12-byte common header.
func decodeHeader(b []byte) (Header, error) {
	if len(b) < headerLen {
		return Header{}, fmt.Errorf("%w: short header", ErrBadRecord)
	}
	h := Header{
		Timestamp: u32(b),
		Type:      Type(u16(b[4:])),
		Subtype:   u16(b[6:]),
		Length:    u32(b[8:]),
	}
	if h.Length > maxRecordLen {
		return Header{}, fmt.Errorf("%w: length %d exceeds cap", ErrBadRecord, h.Length)
	}
	return h, nil
}

// afiAddrBytes returns the encoded address size and family for an AFI
// subtype.
func afiAddrBytes(afi uint16) (int, bgp.Family, error) {
	switch afi {
	case SubtypeAFIIPv4:
		return 4, bgp.FamilyIPv4, nil
	case SubtypeAFIIPv6:
		return 16, bgp.FamilyIPv6, nil
	}
	return 0, bgp.FamilyNone, fmt.Errorf("%w: AFI %d", ErrBadRecord, afi)
}

// Decoded is any typed MRT record value returned by DecodeRecord.
type Decoded any

// DecodeRecord decodes one framed record — its header and body — into
// its typed form: *TableDump, *PeerIndexTable, *RIB, *BGP4MPMessage or
// *BGP4MPStateChange. The value owns its data: body may be reused as soon
// as DecodeRecord returns. Unknown types and subtypes return
// ErrUnknownRecord so callers can skip them, as archive consumers must.
func DecodeRecord(h Header, body []byte) (Decoded, error) {
	switch h.Type {
	case TypeTableDump:
		d := new(TableDump)
		if err := d.DecodeTableDump(body, h.Subtype); err != nil {
			return nil, err
		}
		return d, nil
	case TypeTableDumpV2:
		switch h.Subtype {
		case SubtypePeerIndexTable:
			t := new(PeerIndexTable)
			if err := t.DecodePeerIndexTable(body); err != nil {
				return nil, err
			}
			return t, nil
		case SubtypeRIBIPv4Unicast, SubtypeRIBIPv6Unicast:
			rr := new(RIB)
			if err := rr.DecodeRIB(body, h.Subtype); err != nil {
				return nil, err
			}
			return rr, nil
		}
	case TypeBGP4MP:
		switch h.Subtype {
		case SubtypeMessage:
			m := new(BGP4MPMessage)
			if err := m.DecodeBGP4MPMessageBorrow(body); err != nil {
				return nil, err
			}
			m.Data = append([]byte(nil), m.Data...)
			return m, nil
		case SubtypeStateChange:
			m := new(BGP4MPStateChange)
			if err := m.DecodeBGP4MPStateChange(body); err != nil {
				return nil, err
			}
			return m, nil
		}
	}
	return nil, fmt.Errorf("%w: %v subtype %d", ErrUnknownRecord, h.Type, h.Subtype)
}

// ErrUnknownRecord reports a record type/subtype this library does not
// decode; archive readers should skip such records rather than abort.
var ErrUnknownRecord = fmt.Errorf("mrt: unknown record")
