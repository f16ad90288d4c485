// Package rislive is a client for RIS Live-style BGP update feeds:
// JSON messages over a websocket, as RIPE's ris-live service streams
// them. The client owns its transport end to end — stdlib websocket
// (see ws.go), subscribe-on-connect, jittered exponential reconnect —
// and exposes the feed as a source.Source: each announced or withdrawn
// group becomes a Record whose attribute block is re-encoded to wire
// form and interned, so a JSON feed lands in the exact canonical
// *bgp.Attrs a file replay of the same updates produces. Delivery
// discontinuities (a dropped socket, a server-side queue overflow
// visible as a sequence jump) surface as gaps, with an exact missed
// count when the server numbers its messages.
package rislive

import (
	"encoding/json"
	"fmt"
	"io"
	"net/netip"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"moas/internal/bgp"
	"moas/internal/source"
)

// Config configures a Client.
type Config struct {
	// URL is the ws:// feed endpoint. Required.
	URL string
	// Interner resolves re-encoded attribute blocks; shared with the
	// consuming engine (Next runs on the engine's goroutine). Required.
	Interner *bgp.AttrsInterner
	// OnGap is called on delivery discontinuities: an exact count when
	// the server sequences its messages, Known=false otherwise.
	OnGap func(source.Gap)
	// Backoff bounds the reconnect schedule; zero values use the
	// source package defaults.
	Backoff source.Backoff
	// HealthyAfter is how long a connection must keep delivering before
	// the reconnect backoff resets (default 30s). Resetting on the dial
	// itself — the obvious choice — turns a server that accepts and then
	// immediately drops into a hot reconnect loop: every attempt
	// "succeeds", so every attempt retries at the base delay forever.
	HealthyAfter time.Duration
}

const (
	// subscribe is the JSON subscription sent after each (re)connect.
	subscribe = `{"type":"ris_subscribe","data":{}}`
	// dialTimeout bounds one connection attempt.
	dialTimeout = 10 * time.Second
)

// Client is a connected RIS Live feed. It implements source.Source.
type Client struct {
	cfg     Config
	closeCh chan struct{}

	mu   sync.Mutex // guards conn swaps against Close
	conn *wsConn

	closed     atomic.Bool
	connected  atomic.Bool
	seq        atomic.Uint64
	reconnects atomic.Uint64
	gaps       atomic.Uint64
	lastErr    atomic.Value // string

	// Next-goroutine state.
	backoff source.Backoff
	// connectedAt is when the current transport came up; the backoff
	// resets only after HealthyAfter of sustained reads past it.
	connectedAt time.Time
	lastSrv     uint64 // last server-side sequence number (0 = none seen)
	fresh       bool   // first message after a reconnect pending
	pending     []pendRec
	pi          int
	scratch     bgp.Attrs
	encBuf      []byte
}

// pendRec is one decoded record awaiting delivery: a single RIS message
// fans out into one record per announcement group (the withdrawals ride
// on the first).
type pendRec struct {
	ts        uint32
	peerIP    [16]byte
	peerAS    bgp.ASN
	withdrawn []bgp.Prefix
	attrs     *bgp.Attrs
	nlri      []bgp.Prefix
}

// Dial connects to cfg.URL, subscribes, and returns a live Client. The
// first connection is synchronous — a bad URL or dead endpoint fails
// here, not silently inside the read loop; reconnects after that are
// the client's own business.
func Dial(cfg Config) (*Client, error) {
	if cfg.Interner == nil {
		return nil, fmt.Errorf("rislive: Config.Interner is required")
	}
	if cfg.HealthyAfter <= 0 {
		cfg.HealthyAfter = 30 * time.Second
	}
	c := &Client{cfg: cfg, closeCh: make(chan struct{}), backoff: cfg.Backoff, connectedAt: time.Now()}
	conn, err := dialSubscribed(cfg.URL)
	if err != nil {
		return nil, err
	}
	c.conn = conn
	c.connected.Store(true)
	return c, nil
}

// dialSubscribed connects to url and sends the subscription.
func dialSubscribed(url string) (*wsConn, error) {
	conn, err := wsDial(url, dialTimeout)
	if err != nil {
		return nil, err
	}
	if err := conn.writeText([]byte(subscribe)); err != nil {
		conn.close()
		return nil, err
	}
	return conn, nil
}

// Next implements source.Source: deliver the next update, reconnecting
// through transport loss. Only Close makes it return (io.EOF).
func (c *Client) Next(rec *source.Record) error {
	for {
		if c.pi < len(c.pending) {
			p := &c.pending[c.pi]
			c.pi++
			rec.TS = p.ts
			rec.PeerIP = p.peerIP
			rec.PeerAS = p.peerAS
			rec.Upd.Withdrawn = p.withdrawn
			rec.Upd.Attrs = p.attrs
			rec.Upd.NLRI = p.nlri
			rec.Seq = c.seq.Add(1)
			return nil
		}
		c.pending = c.pending[:0]
		c.pi = 0
		if c.closed.Load() {
			return io.EOF
		}
		op, payload, err := c.conn.readMessage()
		if err != nil {
			if err := c.reconnect(); err != nil {
				return err
			}
			continue
		}
		// The transport has delivered for a sustained window: only now is
		// the connection "healthy" and the reconnect schedule forgiven.
		if c.backoff.Fails() > 0 && time.Since(c.connectedAt) >= c.cfg.HealthyAfter {
			c.backoff.Reset()
		}
		if op != opText {
			continue
		}
		if err := c.ingest(payload); err != nil {
			c.lastErr.Store(err.Error())
		}
	}
}

// Buffered implements source.Source: true while records expanded from
// the last message are still pending — a message announcing several
// prefix groups reaches the engine as one batch.
func (c *Client) Buffered() bool { return c.pi < len(c.pending) }

// reconnect redials with jittered exponential backoff until it succeeds
// or the client is closed. It never gives up: a live monitor's answer
// to a dead feed is patience, not exit.
func (c *Client) reconnect() error {
	c.connected.Store(false)
	c.mu.Lock()
	c.conn.close()
	c.mu.Unlock()
	for {
		if c.closed.Load() {
			return io.EOF
		}
		select {
		case <-time.After(c.backoff.Next()):
		case <-c.closeCh:
			return io.EOF
		}
		conn, err := dialSubscribed(c.cfg.URL)
		if err != nil {
			c.lastErr.Store(err.Error())
			continue
		}
		c.mu.Lock()
		if c.closed.Load() {
			c.mu.Unlock()
			conn.close()
			return io.EOF
		}
		c.conn = conn
		c.mu.Unlock()
		// No backoff.Reset() here: a dial that succeeds proves nothing on
		// an accept-then-drop server. The reset happens on the read path
		// after HealthyAfter of sustained delivery.
		c.connectedAt = time.Now()
		c.reconnects.Add(1)
		c.connected.Store(true)
		c.lastErr.Store("")
		c.fresh = true
		return nil
	}
}

// Status implements source.Source.
func (c *Client) Status() source.Status {
	st := source.Status{
		Kind:       "rislive",
		Endpoint:   c.cfg.URL,
		Connected:  c.connected.Load(),
		Records:    c.seq.Load(),
		Reconnects: c.reconnects.Load(),
		Gaps:       c.gaps.Load(),
	}
	if v, ok := c.lastErr.Load().(string); ok {
		st.LastError = v
	}
	return st
}

// Close implements source.Source: drop the socket and make Next return
// io.EOF. Safe to call more than once and from any goroutine.
func (c *Client) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	close(c.closeCh)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.connected.Store(false)
	return c.conn.close()
}

func (c *Client) emitGap(missed uint64, known bool) {
	c.gaps.Add(1)
	if c.cfg.OnGap != nil {
		c.cfg.OnGap(source.Gap{Missed: missed, Known: known})
	}
}

// The RIS Live JSON shapes. Path elements are heterogeneous — a number
// for a sequence hop, a nested array for an AS_SET — hence RawMessage.
// Seq is not part of RIPE's schema; the in-process fake server numbers
// its messages with it so reconnect tests can assert exact missed
// counts, and a real feed simply omits it.
type risEnvelope struct {
	Type string  `json:"type"`
	Data risData `json:"data"`
}

type risData struct {
	Timestamp     float64           `json:"timestamp"`
	Peer          string            `json:"peer"`
	PeerASN       string            `json:"peer_asn"`
	Seq           uint64            `json:"seq,omitempty"`
	Path          []json.RawMessage `json:"path"`
	Origin        string            `json:"origin"`
	Announcements []risAnnouncement `json:"announcements"`
	Withdrawals   []string          `json:"withdrawals"`
}

type risAnnouncement struct {
	NextHop  string   `json:"next_hop"`
	Prefixes []string `json:"prefixes"`
}

// ingest parses one feed message and expands it into pending records.
func (c *Client) ingest(payload []byte) error {
	var env risEnvelope
	if err := json.Unmarshal(payload, &env); err != nil {
		return fmt.Errorf("rislive: bad message: %w", err)
	}
	if env.Type != "ris_message" {
		return nil // pongs, subscription acks, errors: not updates
	}
	d := &env.Data

	// Sequence accounting before anything can fail: a gap is a property
	// of the transport, not of one message's parsability.
	if d.Seq > 0 {
		if c.lastSrv > 0 && d.Seq > c.lastSrv+1 {
			c.emitGap(d.Seq-c.lastSrv-1, true)
		}
		c.lastSrv = d.Seq
		c.fresh = false
	} else if c.fresh {
		// Reconnected to a feed that does not number messages: records
		// may have been lost, count unknowable.
		c.emitGap(0, false)
		c.fresh = false
	}

	peer4, err := parseIPv4(d.Peer)
	if err != nil {
		return fmt.Errorf("rislive: peer: %w", err)
	}
	// BGP4MP's 16-byte peer address: an IPv4 peer fills the first 4.
	var peerIP [16]byte
	copy(peerIP[:], peer4[:])
	peerAS, err := strconv.ParseUint(d.PeerASN, 10, 32)
	if err != nil {
		return fmt.Errorf("rislive: peer_asn %q: %w", d.PeerASN, err)
	}
	ts := uint32(d.Timestamp)

	withdrawn, err := parsePrefixes(d.Withdrawals)
	if err != nil {
		return err
	}
	if len(d.Announcements) == 0 {
		if len(withdrawn) == 0 {
			return nil // nothing routable in this message
		}
		c.pending = append(c.pending, pendRec{ts: ts, peerIP: peerIP, peerAS: bgp.ASN(peerAS), withdrawn: withdrawn})
		return nil
	}

	path, maxAS, err := parsePath(d.Path)
	if err != nil {
		return err
	}
	for gi, ann := range d.Announcements {
		nlri, err := parsePrefixes(ann.Prefixes)
		if err != nil {
			return err
		}
		if len(nlri) == 0 {
			continue
		}
		nextHop, err := parseIPv4(ann.NextHop)
		if err != nil {
			return fmt.Errorf("rislive: next_hop: %w", err)
		}
		c.scratch = bgp.Attrs{Origin: parseOrigin(d.Origin), ASPath: path, NextHop: nextHop}
		var attrs *bgp.Attrs
		if maxAS > 0xFFFF && !c.cfg.Interner.ASN4() {
			// The path cannot round-trip through the interner's 2-octet
			// wire encoding; keep a private decoded copy instead of
			// corrupting the canonical table.
			attrs = c.scratch.Clone()
		} else {
			c.encBuf = c.scratch.AppendWireEx(c.encBuf[:0], c.cfg.Interner.ASN4())
			attrs, err = c.cfg.Interner.Intern(c.encBuf)
			if err != nil {
				return err
			}
		}
		p := pendRec{ts: ts, peerIP: peerIP, peerAS: bgp.ASN(peerAS), attrs: attrs, nlri: nlri}
		if gi == 0 {
			p.withdrawn = withdrawn
		}
		c.pending = append(c.pending, p)
	}
	return nil
}

func parseOrigin(s string) bgp.Origin {
	switch s {
	case "", "igp", "IGP":
		return bgp.OriginIGP
	case "egp", "EGP":
		return bgp.OriginEGP
	default:
		return bgp.OriginIncomplete
	}
}

// parsePath decodes the heterogeneous RIS path array: numbers are
// sequence hops (merged into runs), nested arrays are AS_SETs.
func parsePath(raw []json.RawMessage) (bgp.Path, uint64, error) {
	if len(raw) == 0 {
		return nil, 0, nil
	}
	var path bgp.Path
	var run []bgp.ASN
	var maxAS uint64
	flush := func() {
		if len(run) > 0 {
			path = append(path, bgp.Segment{Type: bgp.SegSequence, ASes: run})
			run = nil
		}
	}
	for _, el := range raw {
		if len(el) > 0 && el[0] == '[' {
			var set []uint64
			if err := json.Unmarshal(el, &set); err != nil {
				return nil, 0, fmt.Errorf("rislive: path set: %w", err)
			}
			flush()
			ases := make([]bgp.ASN, len(set))
			for i, as := range set {
				if as > maxAS {
					maxAS = as
				}
				ases[i] = bgp.ASN(as)
			}
			path = append(path, bgp.Segment{Type: bgp.SegSet, ASes: ases})
			continue
		}
		var as uint64
		if err := json.Unmarshal(el, &as); err != nil {
			return nil, 0, fmt.Errorf("rislive: path hop: %w", err)
		}
		if as > maxAS {
			maxAS = as
		}
		run = append(run, bgp.ASN(as))
	}
	flush()
	return path, maxAS, nil
}

func parsePrefixes(ss []string) ([]bgp.Prefix, error) {
	var out []bgp.Prefix
	for _, s := range ss {
		p, err := bgp.ParsePrefix(s)
		if err != nil {
			return nil, fmt.Errorf("rislive: prefix %q: %w", s, err)
		}
		if p.Family() != bgp.FamilyIPv4 {
			continue // the engine is IPv4-only (study-era BGP-4)
		}
		out = append(out, p)
	}
	return out, nil
}

// parseIPv4 parses an IPv4 address, a next hop or a peer: the engine is
// IPv4-only (study-era BGP-4).
func parseIPv4(s string) ([4]byte, error) {
	a, err := netip.ParseAddr(s)
	if err != nil || !a.Is4() {
		return [4]byte{}, fmt.Errorf("%q is not an IPv4 address", s)
	}
	return a.As4(), nil
}
