package bgpd

import (
	"bufio"
	"fmt"
	"io"

	"moas/internal/bgp"
)

// BGP message framing over a TCP stream (RFC 4271 §4.1): 16-byte
// marker, 2-byte total length, 1-byte type, body. maxFrame is the
// protocol's hard message ceiling.
const (
	frameHeader = 19
	maxFrame    = 4096
)

// readFrame reads one complete BGP message (header + body) into buf,
// which must be maxFrame bytes. It validates only what framing needs —
// marker bytes and length bounds — leaving message semantics to
// bgp.MessageBody; a framing violation here is unrecoverable because
// the stream position is lost.
func readFrame(br *bufio.Reader, buf []byte) ([]byte, error) {
	hdr := buf[:frameHeader]
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, err
	}
	for i := 0; i < 16; i++ {
		if hdr[i] != 0xFF {
			return nil, fmt.Errorf("%w: bad marker", bgp.ErrBadMessage)
		}
	}
	total := int(hdr[16])<<8 | int(hdr[17])
	if total < frameHeader || total > maxFrame {
		return nil, fmt.Errorf("%w: length %d", bgp.ErrBadMessage, total)
	}
	if _, err := io.ReadFull(br, buf[frameHeader:total]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf[:total], nil
}

// frameBuffered reports whether br already holds the next frame whole,
// so that readFrame serves it without reading the connection. A header
// whose length is below the minimum counts as whole: readFrame rejects
// it without a read.
func frameBuffered(br *bufio.Reader) bool {
	if br.Buffered() < frameHeader {
		return false
	}
	hdr, _ := br.Peek(frameHeader)
	return br.Buffered() >= int(hdr[16])<<8|int(hdr[17])
}

// notifErr is a handshake rejection that maps to a NOTIFICATION the
// speaker should send before hanging up.
type notifErr struct {
	code, sub uint8
	msg       string
}

func (e *notifErr) Error() string { return e.msg }

// parseOpen validates a framed message as the session-opening OPEN:
// right message type, BGP version 4, and a hold time that is zero
// (keepalives disabled) or at least 3 seconds, per RFC 4271 §6.2.
func parseOpen(frame []byte) (*bgp.Open, error) {
	msg, _, err := bgp.DecodeMessage(frame)
	if err != nil {
		return nil, err
	}
	open, ok := msg.(*bgp.Open)
	if !ok {
		return nil, &notifErr{NotifFSMErr, 0, "bgpd: first message is not OPEN"}
	}
	if open.Version != 4 {
		return nil, &notifErr{NotifOpenErr, openBadVersion, fmt.Sprintf("bgpd: BGP version %d", open.Version)}
	}
	if open.HoldTime != 0 && open.HoldTime < 3 {
		return nil, &notifErr{NotifOpenErr, openBadHoldTime, fmt.Sprintf("bgpd: hold time %d", open.HoldTime)}
	}
	return open, nil
}
