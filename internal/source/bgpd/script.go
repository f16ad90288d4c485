package bgpd

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"moas/internal/bgp"
)

// ScriptedPeer is a test harness: the active side of a BGP session,
// driven line-by-line by a test instead of a routing table. It dials a
// Speaker, completes the OPEN exchange, and then sends whatever the
// script says — well-formed updates, raw bytes, silence past the hold
// timer, or an abrupt TCP reset — so session semantics are provable
// without a real daemon or network. Exported (not _test.go) because
// stream and serve integration tests drive their speakers with it.
type ScriptedPeer struct {
	conn net.Conn
	br   *bufio.Reader
	buf  [maxFrame]byte
}

// DialScripted connects to addr and completes the handshake: send OPEN
// (version 4, as, holdTime), await the speaker's OPEN and KEEPALIVE,
// answer with KEEPALIVE. The session is Established on return.
func DialScripted(addr string, as bgp.ASN, holdTime uint16) (*ScriptedPeer, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	p := &ScriptedPeer{conn: conn, br: bufio.NewReader(conn)}
	open := &bgp.Open{Version: 4, AS: as, HoldTime: holdTime, BGPID: [4]byte{192, 0, 2, 99}}
	if err := p.SendRaw(open.AppendWire(nil)); err != nil {
		conn.Close()
		return nil, err
	}
	// Speaker answers OPEN then KEEPALIVE.
	for _, want := range []byte{bgp.MsgOpen, bgp.MsgKeepalive} {
		frame, err := p.ReadMessage()
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("bgpd: scripted handshake: %w", err)
		}
		msgType, _, err := bgp.MessageBody(frame)
		if err != nil {
			conn.Close()
			return nil, err
		}
		if msgType != want {
			conn.Close()
			return nil, fmt.Errorf("bgpd: scripted handshake: got message type %d, want %d", msgType, want)
		}
	}
	if err := p.SendRaw(bgp.AppendKeepalive(nil)); err != nil {
		conn.Close()
		return nil, err
	}
	return p, nil
}

// SendUpdate sends one UPDATE message.
func (p *ScriptedPeer) SendUpdate(u *bgp.Update) error { return p.SendRaw(u.AppendWire(nil)) }

// SendRaw writes bytes verbatim — the hook for malformed-input scripts.
func (p *ScriptedPeer) SendRaw(b []byte) error {
	p.conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	_, err := p.conn.Write(b)
	return err
}

// ReadMessage reads one framed message from the speaker (keepalives,
// notifications). The returned slice is valid until the next call.
func (p *ScriptedPeer) ReadMessage() ([]byte, error) {
	p.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	return readFrame(p.br, p.buf[:])
}

// ReadNotification reads messages until a NOTIFICATION arrives,
// skipping keepalives, and returns its code and subcode.
func (p *ScriptedPeer) ReadNotification() (code, sub uint8, err error) {
	for {
		frame, err := p.ReadMessage()
		if err != nil {
			return 0, 0, err
		}
		msgType, body, err := bgp.MessageBody(frame)
		if err != nil {
			return 0, 0, err
		}
		if msgType == bgp.MsgKeepalive {
			continue
		}
		if msgType != bgp.MsgNotification || len(body) < 2 {
			return 0, 0, fmt.Errorf("bgpd: expected NOTIFICATION, got type %d", msgType)
		}
		return body[0], body[1], nil
	}
}

// Close drops the TCP connection without ceremony (a crash, not a
// graceful cease).
func (p *ScriptedPeer) Close() error { return p.conn.Close() }
