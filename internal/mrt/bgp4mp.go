package mrt

import (
	"fmt"

	"moas/internal/bgp"
)

// BGP4MPMessage is a BGP4MP_MESSAGE record: one BGP message as exchanged
// with a collector peer, with addressing context.
type BGP4MPMessage struct {
	PeerAS, LocalAS bgp.ASN
	IfIndex         uint16
	Family          bgp.Family
	PeerIP, LocalIP [16]byte // IPv4 in the first 4 bytes
	Data            []byte   // complete BGP message, including the 19-byte header
}

// AppendBody appends the BGP4MP_MESSAGE body encoding to dst.
func (m *BGP4MPMessage) AppendBody(dst []byte) []byte {
	dst = appendU16(dst, uint16(m.PeerAS))
	dst = appendU16(dst, uint16(m.LocalAS))
	dst = appendU16(dst, m.IfIndex)
	n := 4
	afi := SubtypeAFIIPv4
	if m.Family == bgp.FamilyIPv6 {
		n, afi = 16, SubtypeAFIIPv6
	}
	dst = appendU16(dst, afi)
	dst = append(dst, m.PeerIP[:n]...)
	dst = append(dst, m.LocalIP[:n]...)
	return append(dst, m.Data...)
}

// DecodeBGP4MPMessageBorrow decodes a BGP4MP_MESSAGE body into m,
// borrowing b for m.Data instead of copying it — zero allocations, zero
// copies. The decoded message is valid only as long as b is (for a
// framed record, until its buffer is reused); callers that retain nothing
// past that window — the streaming decode stage extracts prefixes by
// value and interns attribute blocks — use it as is, and DecodeRecord
// copies Data for the value it returns.
func (m *BGP4MPMessage) DecodeBGP4MPMessageBorrow(b []byte) error {
	if len(b) < 8 {
		return fmt.Errorf("%w: short BGP4MP_MESSAGE", ErrBadRecord)
	}
	m.PeerAS = bgp.ASN(u16(b))
	m.LocalAS = bgp.ASN(u16(b[2:]))
	m.IfIndex = u16(b[4:])
	n, fam, err := afiAddrBytes(u16(b[6:]))
	if err != nil {
		return err
	}
	m.Family = fam
	if len(b) < 8+2*n {
		return fmt.Errorf("%w: BGP4MP_MESSAGE addresses truncated", ErrBadRecord)
	}
	m.PeerIP, m.LocalIP = [16]byte{}, [16]byte{}
	copy(m.PeerIP[:], b[8:8+n])
	copy(m.LocalIP[:], b[8+n:8+2*n])
	m.Data = b[8+2*n:]
	return nil
}

// Message decodes the embedded BGP message (see bgp.DecodeMessage).
func (m *BGP4MPMessage) Message() (any, error) {
	msg, _, err := bgp.DecodeMessage(m.Data)
	return msg, err
}

// BGP4MPStateChange is a BGP4MP_STATE_CHANGE record: an FSM transition of a
// collector peering session.
type BGP4MPStateChange struct {
	PeerAS, LocalAS bgp.ASN
	IfIndex         uint16
	Family          bgp.Family
	PeerIP, LocalIP [16]byte
	OldState        uint16
	NewState        uint16
}

// BGP FSM states as recorded in STATE_CHANGE records.
const (
	StateIdle        uint16 = 1
	StateConnect     uint16 = 2
	StateActive      uint16 = 3
	StateOpenSent    uint16 = 4
	StateOpenConfirm uint16 = 5
	StateEstablished uint16 = 6
)

// AppendBody appends the BGP4MP_STATE_CHANGE body encoding to dst.
func (m *BGP4MPStateChange) AppendBody(dst []byte) []byte {
	dst = appendU16(dst, uint16(m.PeerAS))
	dst = appendU16(dst, uint16(m.LocalAS))
	dst = appendU16(dst, m.IfIndex)
	n := 4
	afi := SubtypeAFIIPv4
	if m.Family == bgp.FamilyIPv6 {
		n, afi = 16, SubtypeAFIIPv6
	}
	dst = appendU16(dst, afi)
	dst = append(dst, m.PeerIP[:n]...)
	dst = append(dst, m.LocalIP[:n]...)
	dst = appendU16(dst, m.OldState)
	return appendU16(dst, m.NewState)
}

// DecodeBGP4MPStateChange decodes a BGP4MP_STATE_CHANGE body into m.
func (m *BGP4MPStateChange) DecodeBGP4MPStateChange(b []byte) error {
	if len(b) < 8 {
		return fmt.Errorf("%w: short BGP4MP_STATE_CHANGE", ErrBadRecord)
	}
	m.PeerAS = bgp.ASN(u16(b))
	m.LocalAS = bgp.ASN(u16(b[2:]))
	m.IfIndex = u16(b[4:])
	n, fam, err := afiAddrBytes(u16(b[6:]))
	if err != nil {
		return err
	}
	m.Family = fam
	if len(b) != 8+2*n+4 {
		return fmt.Errorf("%w: BGP4MP_STATE_CHANGE length %d", ErrBadRecord, len(b))
	}
	m.PeerIP, m.LocalIP = [16]byte{}, [16]byte{}
	copy(m.PeerIP[:], b[8:8+n])
	copy(m.LocalIP[:], b[8+n:8+2*n])
	m.OldState = u16(b[8+2*n:])
	m.NewState = u16(b[8+2*n+2:])
	return nil
}
