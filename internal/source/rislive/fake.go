package rislive

import (
	"encoding/json"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Fake is an in-process RIS Live endpoint for tests: a real TCP
// listener speaking the same websocket handshake and frames the client
// dials, driven message-by-message by the test. It serves one
// subscriber at a time (a monitor holds one feed connection), numbers
// every message with the seq extension so reconnect tests can assert
// exact missed counts, and can kill the live connection on command to
// force the client through its backoff path. Exported (not _test.go)
// because stream and serve integration tests feed their engines with
// it.
type Fake struct {
	ln net.Listener
	wg sync.WaitGroup

	mu   sync.Mutex
	cur  *wsConn
	curc chan struct{} // closed when cur becomes non-nil; replaced on drop

	subs     atomic.Int64
	connects atomic.Int64
	seq      atomic.Uint64
	closed   atomic.Bool
	// NumberMessages controls the seq extension; on by default. Turn it
	// off to emulate RIPE's real schema (no seq field), which forces
	// the client's Known=false gap path.
	NumberMessages atomic.Bool
	// KillOnConnect, when set, severs every new connection right after
	// the websocket upgrade — the accept-then-drop failure mode that
	// distinguishes "the dial succeeded" from "the feed is healthy".
	// The backoff regression test runs the client against it.
	KillOnConnect atomic.Bool
}

// NewFake starts a fake feed on a random loopback port.
func NewFake() (*Fake, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &Fake{ln: ln, curc: make(chan struct{})}
	f.NumberMessages.Store(true)
	f.wg.Add(1)
	go f.accept()
	return f, nil
}

// URL returns the ws:// endpoint clients dial.
func (f *Fake) URL() string { return "ws://" + f.ln.Addr().String() + "/v1/ws/" }

func (f *Fake) accept() {
	defer f.wg.Done()
	for {
		conn, err := f.ln.Accept()
		if err != nil {
			return
		}
		ws, _, err := wsUpgrade(conn)
		if err != nil {
			conn.Close()
			continue
		}
		f.connects.Add(1)
		if f.KillOnConnect.Load() {
			// Accepted, upgraded, dead: the client's dial+subscribe
			// "succeeds" and the very next read fails.
			conn.Close()
			continue
		}
		f.mu.Lock()
		if f.cur != nil {
			f.cur.conn.Close() // one subscriber at a time; newest wins
		}
		f.cur = ws
		close(f.curc)
		f.mu.Unlock()
		// Read loop: count subscriptions, answer pings (readMessage does),
		// notice the drop.
		f.wg.Add(1)
		go func(ws *wsConn) {
			defer f.wg.Done()
			for {
				op, payload, err := ws.readMessage()
				if err != nil {
					f.dropped(ws)
					return
				}
				if op == opText {
					var m struct {
						Type string `json:"type"`
					}
					if json.Unmarshal(payload, &m) == nil && m.Type == "ris_subscribe" {
						f.subs.Add(1)
					}
				}
			}
		}(ws)
	}
}

func (f *Fake) dropped(ws *wsConn) {
	f.mu.Lock()
	if f.cur == ws {
		f.cur = nil
		f.curc = make(chan struct{})
	}
	f.mu.Unlock()
}

// Connects returns how many websocket upgrades completed — including
// connections KillOnConnect severed before their subscribe was read.
func (f *Fake) Connects() int { return int(f.connects.Load()) }

// WaitSubscribed blocks until at least n subscribe messages have been
// read. Tests that sever the connection must wait here first: Kill
// discards any bytes still queued in the kernel, so an unsynchronized
// Kill can race the just-written subscription out of existence.
func (f *Fake) WaitSubscribed(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for int(f.subs.Load()) < n {
		if time.Now().After(deadline) {
			return fmt.Errorf("rislive: %d subscribes after %v, want %d", f.subs.Load(), timeout, n)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// WaitConnected blocks until a subscriber is attached.
func (f *Fake) WaitConnected(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		f.mu.Lock()
		ch := f.curc
		connected := f.cur != nil
		f.mu.Unlock()
		if connected {
			return nil
		}
		select {
		case <-ch:
		case <-time.After(time.Until(deadline)):
			return fmt.Errorf("rislive: no subscriber after %v", timeout)
		}
	}
}

// Msg is one fake feed message in RIS Live shape. Zero-value fields are
// omitted from the JSON like the real feed omits them.
type Msg struct {
	Timestamp     float64
	Peer          string
	PeerASN       uint32
	Path          []any // uint32 hops and []uint32 AS_SETs
	Origin        string
	Announcements []Announcement
	Withdrawals   []string
}

// Announcement is one next-hop group.
type Announcement struct {
	NextHop  string
	Prefixes []string
}

// Send numbers and delivers one ris_message to the current subscriber.
// With no subscriber attached the message is dropped — its sequence
// number is still consumed, which is exactly how a gap forms.
func (f *Fake) Send(m Msg) error {
	seq := f.seq.Add(1)
	data := map[string]any{
		"timestamp": m.Timestamp,
		"peer":      m.Peer,
		"peer_asn":  strconv.FormatUint(uint64(m.PeerASN), 10),
	}
	if f.NumberMessages.Load() {
		data["seq"] = seq
	}
	if len(m.Path) > 0 {
		data["path"] = m.Path
	}
	if m.Origin != "" {
		data["origin"] = m.Origin
	}
	if len(m.Announcements) > 0 {
		anns := make([]map[string]any, len(m.Announcements))
		for i, a := range m.Announcements {
			anns[i] = map[string]any{"next_hop": a.NextHop, "prefixes": a.Prefixes}
		}
		data["announcements"] = anns
	}
	if len(m.Withdrawals) > 0 {
		data["withdrawals"] = m.Withdrawals
	}
	payload, err := json.Marshal(map[string]any{"type": "ris_message", "data": data})
	if err != nil {
		return err
	}
	f.mu.Lock()
	cur := f.cur
	f.mu.Unlock()
	if cur == nil {
		return nil // dropped: the subscriber will see a seq gap
	}
	if err := cur.writeText(payload); err != nil {
		f.dropped(cur)
		return nil // connection died mid-send: same as dropped
	}
	return nil
}

// Kill severs the current subscriber's connection without a close
// frame — the transport failure reconnect tests need.
func (f *Fake) Kill() {
	f.mu.Lock()
	cur := f.cur
	f.mu.Unlock()
	if cur != nil {
		cur.conn.Close()
		f.dropped(cur)
	}
}

// Close stops the listener and every connection.
func (f *Fake) Close() {
	if f.closed.Swap(true) {
		return
	}
	f.ln.Close()
	f.mu.Lock()
	if f.cur != nil {
		f.cur.conn.Close()
		f.cur = nil
	}
	f.mu.Unlock()
	f.wg.Wait()
}
