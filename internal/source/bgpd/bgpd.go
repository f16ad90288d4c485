// Package bgpd is a minimal passive BGP speaker: it accepts TCP
// sessions from real BGP daemons, runs the OPEN/KEEPALIVE handshake and
// hold-timer bookkeeping of RFC 4271's FSM (the passive half only — it
// never initiates connections), and surfaces every UPDATE received on
// an established session as a source.Record. A session hands Next every
// UPDATE it has already read as one burst, so a table transfer costs one
// goroutine handoff per read buffer, not one per UPDATE. Decoding
// happens on the Next caller's goroutine through the engine's shared
// attribute interner, so live sessions feed the same zero-alloc decode
// path as archive replay. The speaker is a route collector, not a router: it
// advertises nothing, accepts any peer AS, and treats session loss as a
// data gap to report rather than a routing event to react to.
package bgpd

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"moas/internal/bgp"
	"moas/internal/source"
)

// NOTIFICATION error codes (RFC 4271 §4.5).
const (
	NotifMsgHeaderErr = 1
	NotifOpenErr      = 2
	NotifUpdateErr    = 3
	NotifHoldExpired  = 4
	NotifFSMErr       = 5
	NotifCease        = 6
)

// OPEN error subcodes used by the speaker.
const (
	openBadVersion  = 1
	openBadHoldTime = 6
)

// Config configures a Speaker.
type Config struct {
	// Addr is the TCP listen address (":179", "127.0.0.1:0").
	Addr string
	// LocalAS and BGPID identify the speaker in its OPEN.
	LocalAS bgp.ASN
	BGPID   [4]byte
	// HoldTime is the hold time proposed in the speaker's OPEN, seconds;
	// the session uses min(HoldTime, peer's). Default 90.
	HoldTime uint16
	// Interner resolves UPDATE attribute blocks; it is shared with the
	// consuming engine (Next runs on the engine's goroutine). Required.
	Interner *bgp.AttrsInterner
	// Now supplies record timestamps (Unix seconds); defaults to the
	// wall clock. Tests inject a fake clock for deterministic
	// day-close behavior.
	Now func() uint32
	// OnGap is called when an established session drops — records may
	// have been lost and the speaker cannot count them (Known=false).
	OnGap func(source.Gap)
}

// Session buffering. A session reads through a readBuf-byte buffer and
// frames every UPDATE already whole in it into one burst, so a burst
// holds at most the frame whose read refilled the buffer plus what that
// refill brought: burstCap bytes (a body's 2-byte length prefix is
// smaller than the 19-byte header it replaces). Each session owns two
// burst buffers: it fills one while Next walks the other.
const (
	readBuf  = 1 << 16
	burstCap = readBuf + maxFrame
	// queuedBursts is how many bursts may wait for Next across all
	// sessions. A session never has more than its two buffers queued,
	// so up to 32 sessions queue without waiting on each other; more
	// wait their turn, which only paces them (TCP back-pressures the
	// peers).
	queuedBursts = 64
)

// sessMsg is one burst queued from a session reader toward Next: the
// bodies of the UPDATEs the session framed back to back, each prefixed
// by its 2-byte big-endian length, stamped once, when the first was
// framed. body is one of the session's burst buffers; Next returns it
// to sess.free once walked, so nothing a Record holds may alias it.
type sessMsg struct {
	ts     uint32
	peerIP [16]byte
	peerAS bgp.ASN
	body   []byte
	sess   *session
}

// Speaker is the passive BGP listener. It implements source.Source.
type Speaker struct {
	cfg  Config
	ln   net.Listener
	q    chan sessMsg
	done chan struct{}

	// The burst Next is walking and its unread bodies; Next's goroutine
	// only.
	cur  sessMsg
	rest []byte

	mu    sync.Mutex
	sess  map[*session]struct{}
	wg    sync.WaitGroup
	close atomic.Bool

	seq     atomic.Uint64
	peers   atomic.Int64
	estab   atomic.Uint64
	gaps    atomic.Uint64
	lastErr atomic.Value // string
}

// Listen starts a Speaker accepting sessions on cfg.Addr.
func Listen(cfg Config) (*Speaker, error) {
	if cfg.Interner == nil {
		return nil, fmt.Errorf("bgpd: Config.Interner is required")
	}
	if cfg.HoldTime == 0 {
		cfg.HoldTime = 90
	}
	if cfg.Now == nil {
		cfg.Now = func() uint32 { return uint32(time.Now().Unix()) }
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	s := &Speaker{
		cfg:  cfg,
		ln:   ln,
		q:    make(chan sessMsg, queuedBursts),
		done: make(chan struct{}),
		sess: make(map[*session]struct{}),
	}
	s.wg.Add(1)
	go s.accept()
	return s, nil
}

// Addr returns the listener's address (useful with ":0").
func (s *Speaker) Addr() net.Addr { return s.ln.Addr() }

func (s *Speaker) accept() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if !s.close.Load() {
				s.lastErr.Store(err.Error())
			}
			return
		}
		ses := &session{sp: s, conn: conn, br: bufio.NewReaderSize(conn, readBuf)}
		s.mu.Lock()
		if s.close.Load() {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.sess[ses] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go ses.run()
	}
}

// Next implements source.Source: it delivers the next UPDATE of the
// burst in hand, decoding it through the shared interner on this
// goroutine, and takes the next queued burst only once this one is
// used up. A malformed UPDATE kills its session with a NOTIFICATION
// (update error) but not the source: nothing more that session sent is
// delivered, and Next moves on to the other sessions' bursts.
func (s *Speaker) Next(rec *source.Record) error {
	for {
		for len(s.rest) == 0 {
			select {
			case s.cur = <-s.q:
			case <-s.done:
				// Drain what sessions queued before shutdown.
				select {
				case s.cur = <-s.q:
				default:
					return io.EOF
				}
			}
			s.rest = s.cur.body
			if s.cur.sess.rejected {
				s.cur.sess.free <- s.cur.body[:0]
				s.rest = nil
			}
		}
		m := &s.cur
		n := int(binary.BigEndian.Uint16(s.rest))
		body := s.rest[2 : 2+n]
		s.rest = s.rest[2+n:]
		err := bgp.DecodeUpdateBodyInto(&rec.Upd, body, s.cfg.Interner)
		if err != nil {
			s.lastErr.Store(err.Error())
			m.sess.rejected = true
			m.sess.abort(NotifUpdateErr, 0)
			s.rest = nil
		}
		if len(s.rest) == 0 {
			m.sess.free <- m.body[:0] // walked: the session may refill it
		}
		if err == nil {
			rec.TS = m.ts
			rec.PeerIP = m.peerIP
			rec.PeerAS = m.peerAS
			rec.Seq = s.seq.Add(1)
			return nil
		}
	}
}

// Status implements source.Source.
func (s *Speaker) Status() source.Status {
	peers := int(s.peers.Load())
	st := source.Status{
		Kind:      "bgp",
		Endpoint:  s.ln.Addr().String(),
		Connected: peers > 0,
		Records:   s.seq.Load(),
		Gaps:      s.gaps.Load(),
		Peers:     peers,
	}
	if n := s.estab.Load(); n > 1 {
		st.Reconnects = n - 1
	}
	if v, ok := s.lastErr.Load().(string); ok {
		st.LastError = v
	}
	return st
}

// Close implements source.Source: every established session is sent a
// NOTIFICATION cease, the listener stops, and Next returns io.EOF once
// it has walked the bursts already queued. Safe to call more than once.
func (s *Speaker) Close() error {
	if s.close.Swap(true) {
		return nil
	}
	s.ln.Close()
	s.mu.Lock()
	for ses := range s.sess {
		ses.abort(NotifCease, 0)
	}
	s.mu.Unlock()
	close(s.done)
	s.wg.Wait()
	return nil
}

// session is one accepted TCP connection's FSM state.
type session struct {
	sp   *Speaker
	conn net.Conn
	br   *bufio.Reader
	// free holds the session's burst buffers not queued or being walked.
	free chan []byte
	// rejected is set once Next failed to decode one of the session's
	// UPDATEs; Next's goroutine only.
	rejected bool

	wmu     sync.Mutex
	dead    atomic.Bool
	peerIP  [16]byte
	peerAS  bgp.ASN
	hold    time.Duration // 0 = no hold timer
	rdWake  chan struct{} // closed to stop the keepalive sender
	started bool          // reached Established
}

// openWait bounds how long a connected peer may stall before its OPEN
// (RFC 4271's large hold timer, shortened — a collector has no reason
// to humor a silent dialer for four minutes).
const openWait = 30 * time.Second

// run is the session goroutine: handshake, then the established read
// loop. Every exit path closes the connection and deregisters.
func (s *session) run() {
	defer s.sp.wg.Done()
	defer s.finish()

	if err := s.handshake(); err != nil {
		if !s.sp.close.Load() {
			s.sp.lastErr.Store(err.Error())
		}
		return
	}
	s.started = true
	s.sp.peers.Add(1)
	s.sp.estab.Add(1)
	defer s.sp.peers.Add(-1)

	s.rdWake = make(chan struct{})
	if s.hold > 0 {
		s.sp.wg.Add(1)
		go s.keepaliveLoop()
	}
	if err := s.established(); err != nil && !s.sp.close.Load() && !s.dead.Load() {
		s.sp.lastErr.Store(err.Error())
	}
}

// finish tears the session down and, if it had been established and the
// speaker is not shutting down, reports the drop as a gap of unknown
// size.
func (s *session) finish() {
	s.dead.Store(true)
	s.conn.Close()
	if s.rdWake != nil {
		select {
		case <-s.rdWake:
		default:
			close(s.rdWake)
		}
	}
	s.sp.mu.Lock()
	delete(s.sp.sess, s)
	s.sp.mu.Unlock()
	if s.started && !s.sp.close.Load() {
		s.sp.gaps.Add(1)
		if s.sp.cfg.OnGap != nil {
			s.sp.cfg.OnGap(source.Gap{Known: false})
		}
	}
}

// handshake runs the passive open exchange: expect the peer's OPEN,
// validate it, answer with our OPEN and the KEEPALIVE that confirms it.
func (s *session) handshake() error {
	s.conn.SetReadDeadline(time.Now().Add(openWait))
	var buf [maxFrame]byte
	frame, err := readFrame(s.br, buf[:])
	if err != nil {
		return fmt.Errorf("bgpd: waiting for OPEN: %w", err)
	}
	open, err := parseOpen(frame)
	if err != nil {
		if nerr, ok := err.(*notifErr); ok {
			s.send((&bgp.Notification{Code: nerr.code, Subcode: nerr.sub}).AppendWire(nil))
		}
		return fmt.Errorf("bgpd: OPEN rejected: %w", err)
	}
	s.peerAS = open.AS
	if ta, ok := s.conn.RemoteAddr().(*net.TCPAddr); ok {
		if v4 := ta.IP.To4(); v4 != nil {
			copy(s.peerIP[:4], v4) // BGP4MP convention: IPv4 in the first 4 bytes
		} else {
			copy(s.peerIP[:], ta.IP.To16())
		}
	}
	hold := s.sp.cfg.HoldTime
	if open.HoldTime < hold {
		hold = open.HoldTime
	}
	s.hold = time.Duration(hold) * time.Second

	out := (&bgp.Open{Version: 4, AS: s.sp.cfg.LocalAS, HoldTime: s.sp.cfg.HoldTime, BGPID: s.sp.cfg.BGPID}).AppendWire(nil)
	out = bgp.AppendKeepalive(out)
	return s.send(out)
}

// established is the steady-state read loop. Frames already whole in the
// read buffer are framed back to back, their UPDATEs into one burst; the
// burst goes to Next before any read that could wait on the peer and
// before the session ends, however it ends, so no received UPDATE is
// dropped or reordered. The read deadline is the hold timer, armed only
// before such a read (a frame served from the buffer never touches the
// socket): a peer silent for the negotiated hold time gets a
// NOTIFICATION (hold timer expired) and loses the session.
func (s *session) established() error {
	s.free = make(chan []byte, 2)
	for i := 0; i < cap(s.free); i++ {
		s.free <- make([]byte, 0, burstCap)
	}
	var buf [maxFrame]byte
	m := sessMsg{peerIP: s.peerIP, peerAS: s.peerAS, sess: s}
	defer s.ship(&m)
	for {
		if !frameBuffered(s.br) {
			if !s.ship(&m) {
				return nil
			}
			if s.hold > 0 {
				s.conn.SetReadDeadline(time.Now().Add(s.hold))
			} else {
				s.conn.SetReadDeadline(time.Time{})
			}
		}
		frame, err := readFrame(s.br, buf[:])
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				s.send((&bgp.Notification{Code: NotifHoldExpired}).AppendWire(nil))
				return fmt.Errorf("bgpd: hold timer expired for %s", s.conn.RemoteAddr())
			}
			if err == io.EOF {
				return nil // peer closed cleanly at a frame boundary
			}
			return err
		}
		msgType, body, err := bgp.MessageBody(frame)
		if err != nil {
			s.send((&bgp.Notification{Code: NotifMsgHeaderErr}).AppendWire(nil))
			return err
		}
		switch msgType {
		case bgp.MsgKeepalive:
			// Hold timer already reset before the read.
		case bgp.MsgUpdate:
			if m.body == nil {
				m.ts = s.sp.cfg.Now()
				select {
				case m.body = <-s.free:
				case <-s.sp.done:
					return nil
				}
			}
			m.body = binary.BigEndian.AppendUint16(m.body, uint16(len(body)))
			m.body = append(m.body, body...)
		case bgp.MsgNotification:
			// Peer is closing the session; nothing to answer.
			return nil
		default:
			// A second OPEN (or anything unknown) in Established is an
			// FSM error.
			s.send((&bgp.Notification{Code: NotifFSMErr}).AppendWire(nil))
			return fmt.Errorf("bgpd: message type %d in Established", msgType)
		}
	}
}

// ship hands the burst in progress, if any, to Next. It reports false
// once the speaker is closing: the burst is then dropped, as Close drops
// whatever a session has not queued.
func (s *session) ship(m *sessMsg) bool {
	if m.body == nil {
		return true
	}
	select {
	case s.sp.q <- *m:
		m.body = nil
		return true
	case <-s.sp.done:
		return false
	}
}

// keepaliveLoop sends KEEPALIVEs every hold/3, the RFC's recommended
// ratio, until the session dies.
func (s *session) keepaliveLoop() {
	defer s.sp.wg.Done()
	t := time.NewTicker(s.hold / 3)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if s.send(bgp.AppendKeepalive(nil)) != nil {
				return
			}
		case <-s.rdWake:
			return
		case <-s.sp.done:
			return
		}
	}
}

// send writes one framed message under the write lock with a bounded
// deadline, so a wedged peer cannot block Close or the keepalive loop.
func (s *session) send(b []byte) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	_, err := s.conn.Write(b)
	return err
}

// abort sends a NOTIFICATION and severs the connection; the session
// goroutine observes the closed conn and unwinds through finish.
func (s *session) abort(code, sub uint8) {
	if s.dead.Swap(true) {
		return
	}
	s.send((&bgp.Notification{Code: code, Subcode: sub}).AppendWire(nil))
	s.conn.Close()
}
