package bgp

import (
	"errors"
	"fmt"
)

// Message type codes (RFC 4271 §4.1).
const (
	MsgOpen         = 1
	MsgUpdate       = 2
	MsgNotification = 3
	MsgKeepalive    = 4
)

// Header sizes.
const (
	headerLen = 19
	maxMsgLen = 4096
)

// ErrBadMessage reports a malformed BGP message. Every decode error of a
// message wraps it, including those of the NLRI and path attributes
// inside an UPDATE, which keep their own text and sentinel.
var ErrBadMessage = errors.New("bgp: bad message")

// badPart is the error of a malformed part of a message: its text is the
// part's own, and errors.Is matches ErrBadMessage as well as the part's
// sentinel.
type badPart struct{ error }

func (e badPart) Unwrap() []error { return []error{ErrBadMessage, e.error} }

// Open is a BGP OPEN message.
type Open struct {
	Version   uint8
	AS        ASN // 2-octet on the wire: AS_TRANS stands in for one above 65535
	HoldTime  uint16
	BGPID     [4]byte
	OptParams []byte
}

// Update is a BGP UPDATE message: withdrawn routes, path attributes and the
// NLRI the attributes apply to. IPv4 only, as in BGP-4 without
// multiprotocol extensions (the study-era encoding).
type Update struct {
	Withdrawn []Prefix
	Attrs     *Attrs // nil when the update only withdraws
	NLRI      []Prefix
}

// Notification is a BGP NOTIFICATION message.
type Notification struct {
	Code    uint8
	Subcode uint8
	Data    []byte
}

func appendHeader(dst []byte, msgType byte, bodyLen int) []byte {
	for i := 0; i < 16; i++ {
		dst = append(dst, 0xFF)
	}
	total := headerLen + bodyLen
	return append(dst, byte(total>>8), byte(total), msgType)
}

// AppendWire appends the wire form of the OPEN message to dst. An AS
// above 65535 is written as ASTrans, never as its low 16 bits, which
// would name some other AS.
func (m *Open) AppendWire(dst []byte) []byte {
	as := m.AS
	if as > 0xFFFF {
		as = ASTrans
	}
	dst = appendHeader(dst, MsgOpen, 10+len(m.OptParams))
	dst = append(dst, m.Version, byte(as>>8), byte(as), byte(m.HoldTime>>8), byte(m.HoldTime))
	dst = append(dst, m.BGPID[:]...)
	dst = append(dst, byte(len(m.OptParams)))
	return append(dst, m.OptParams...)
}

// AppendWire appends the wire form of the UPDATE message to dst.
func (m *Update) AppendWire(dst []byte) []byte {
	var wd []byte
	for _, p := range m.Withdrawn {
		wd = p.AppendNLRI(wd)
	}
	var attrs []byte
	if m.Attrs != nil {
		attrs = m.Attrs.AppendWire(nil)
	}
	var nlri []byte
	for _, p := range m.NLRI {
		nlri = p.AppendNLRI(nlri)
	}
	body := 2 + len(wd) + 2 + len(attrs) + len(nlri)
	dst = appendHeader(dst, MsgUpdate, body)
	dst = append(dst, byte(len(wd)>>8), byte(len(wd)))
	dst = append(dst, wd...)
	dst = append(dst, byte(len(attrs)>>8), byte(len(attrs)))
	dst = append(dst, attrs...)
	return append(dst, nlri...)
}

// AppendWire appends the wire form of the NOTIFICATION message to dst.
func (m *Notification) AppendWire(dst []byte) []byte {
	dst = appendHeader(dst, MsgNotification, 2+len(m.Data))
	dst = append(dst, m.Code, m.Subcode)
	return append(dst, m.Data...)
}

// AppendKeepalive appends a KEEPALIVE message to dst.
func AppendKeepalive(dst []byte) []byte {
	return appendHeader(dst, MsgKeepalive, 0)
}

// MessageBody validates one BGP message header (marker, length bounds)
// and returns its type code and body without decoding the body — the
// allocation-free front half of DecodeMessage, for callers that dispatch
// on the type themselves (the streaming replay decodes only UPDATEs this
// way). The body borrows b.
func MessageBody(b []byte) (msgType byte, body []byte, err error) {
	if len(b) < headerLen {
		return 0, nil, fmt.Errorf("%w: short header", ErrBadMessage)
	}
	for i := 0; i < 16; i++ {
		if b[i] != 0xFF {
			return 0, nil, fmt.Errorf("%w: bad marker", ErrBadMessage)
		}
	}
	total := int(b[16])<<8 | int(b[17])
	msgType = b[18]
	if total < headerLen || total > maxMsgLen {
		return 0, nil, fmt.Errorf("%w: length %d", ErrBadMessage, total)
	}
	if len(b) < total {
		return 0, nil, fmt.Errorf("%w: truncated body", ErrBadMessage)
	}
	return msgType, b[headerLen:total], nil
}

// DecodeMessage decodes one BGP message from b, returning the decoded
// message (*Open, *Update, *Notification, or nil for KEEPALIVE), the number
// of bytes consumed, and any error.
func DecodeMessage(b []byte) (msg any, n int, err error) {
	msgType, body, err := MessageBody(b)
	if err != nil {
		return nil, 0, err
	}
	total := headerLen + len(body)
	switch msgType {
	case MsgOpen:
		m, err := decodeOpen(body)
		return m, total, err
	case MsgUpdate:
		m := &Update{}
		if err := DecodeUpdateBodyInto(m, body, nil); err != nil {
			return nil, total, err
		}
		return m, total, nil
	case MsgNotification:
		if len(body) < 2 {
			return nil, 0, fmt.Errorf("%w: short notification", ErrBadMessage)
		}
		return &Notification{Code: body[0], Subcode: body[1], Data: append([]byte(nil), body[2:]...)}, total, nil
	case MsgKeepalive:
		if len(body) != 0 {
			return nil, 0, fmt.Errorf("%w: keepalive with body", ErrBadMessage)
		}
		return nil, total, nil
	}
	return nil, 0, fmt.Errorf("%w: type %d", ErrBadMessage, msgType)
}

func decodeOpen(body []byte) (*Open, error) {
	if len(body) < 10 {
		return nil, fmt.Errorf("%w: short open", ErrBadMessage)
	}
	m := &Open{
		Version:  body[0],
		AS:       ASN(body[1])<<8 | ASN(body[2]),
		HoldTime: uint16(body[3])<<8 | uint16(body[4]),
	}
	copy(m.BGPID[:], body[5:9])
	optLen := int(body[9])
	if len(body) < 10+optLen {
		return nil, fmt.Errorf("%w: truncated open params", ErrBadMessage)
	}
	m.OptParams = append([]byte(nil), body[10:10+optLen]...)
	return m, nil
}

// DecodeUpdateBodyInto decodes the body of an UPDATE message (without
// the 19-byte header; MRT BGP4MP records embed whole messages, while
// TABLE_DUMP records embed bare attribute blocks decoded via Attrs) into
// u, truncating and reusing u's Withdrawn and NLRI backing arrays, so
// decoding a stream of updates through one Update performs zero
// steady-state allocations. The path attribute block is read with
// 2-octet AS numbers, the width BGP4MP_MESSAGE records and 2-octet
// sessions carry. When in is non-nil the block is resolved through the
// interner at that width — u.Attrs then points at the shared canonical
// value for those wire bytes and must not be mutated; when in is nil a
// fresh Attrs is decoded. On error u is left partially filled and must
// not be used.
func DecodeUpdateBodyInto(u *Update, body []byte, in *AttrsInterner) error {
	u.Withdrawn = u.Withdrawn[:0]
	u.NLRI = u.NLRI[:0]
	u.Attrs = nil
	if len(body) < 4 {
		return fmt.Errorf("%w: short update", ErrBadMessage)
	}
	wdLen := int(body[0])<<8 | int(body[1])
	if len(body) < 2+wdLen+2 {
		return fmt.Errorf("%w: truncated withdrawn block", ErrBadMessage)
	}
	wd := body[2 : 2+wdLen]
	for len(wd) > 0 {
		p, n, err := DecodeNLRI(wd, FamilyIPv4)
		if err != nil {
			return badPart{err}
		}
		u.Withdrawn = append(u.Withdrawn, p)
		wd = wd[n:]
	}
	rest := body[2+wdLen:]
	attrLen := int(rest[0])<<8 | int(rest[1])
	if len(rest) < 2+attrLen {
		return fmt.Errorf("%w: truncated attribute block", ErrBadMessage)
	}
	if attrLen > 0 {
		if in != nil {
			a, err := in.Intern(rest[2:2+attrLen], false)
			if err != nil {
				return badPart{err}
			}
			u.Attrs = a
		} else {
			u.Attrs = new(Attrs)
			if err := u.Attrs.DecodeAttrs(rest[2 : 2+attrLen]); err != nil {
				return badPart{err}
			}
		}
	}
	nlri := rest[2+attrLen:]
	for len(nlri) > 0 {
		p, n, err := DecodeNLRI(nlri, FamilyIPv4)
		if err != nil {
			return badPart{err}
		}
		u.NLRI = append(u.NLRI, p)
		nlri = nlri[n:]
	}
	return nil
}
