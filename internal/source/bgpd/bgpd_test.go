package bgpd

import (
	"bufio"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"moas/internal/bgp"
	"moas/internal/source"
)

// newSpeaker starts a speaker on a random loopback port with a fake
// clock.
func newSpeaker(t *testing.T, clk *atomic.Uint32, cfg Config) *Speaker {
	t.Helper()
	if cfg.Interner == nil {
		cfg.Interner = new(bgp.AttrsInterner)
	}
	if cfg.LocalAS == 0 {
		cfg.LocalAS = 65000
	}
	cfg.BGPID = [4]byte{192, 0, 2, 1}
	cfg.Addr = "127.0.0.1:0"
	if cfg.Now == nil {
		cfg.Now = clk.Load
	}
	sp, err := Listen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sp.Close() })
	return sp
}

func testAttrs() *bgp.Attrs {
	return &bgp.Attrs{
		Origin:  bgp.OriginIGP,
		ASPath:  bgp.Path{{Type: bgp.SegSequence, ASes: []bgp.ASN{65001, 65002}}},
		NextHop: [4]byte{192, 0, 2, 7},
	}
}

func TestSpeakerDeliversUpdates(t *testing.T) {
	var clk atomic.Uint32
	clk.Store(5000)
	sp := newSpeaker(t, &clk, Config{})

	p, err := DialScripted(sp.Addr().String(), 65001, 90)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	pfx := bgp.MustParsePrefix("10.0.0.0/8")
	if err := p.SendUpdate(&bgp.Update{Attrs: testAttrs(), NLRI: []bgp.Prefix{pfx}}); err != nil {
		t.Fatal(err)
	}

	var rec source.Record
	if err := sp.Next(&rec); err != nil {
		t.Fatal(err)
	}
	// Advance the clock only after record 1 is consumed: the speaker
	// stamps arrival time, so an earlier advance would race the read.
	clk.Store(5010)
	if err := p.SendUpdate(&bgp.Update{Withdrawn: []bgp.Prefix{pfx}}); err != nil {
		t.Fatal(err)
	}
	if rec.Seq != 1 || rec.TS != 5000 || rec.PeerAS != 65001 {
		t.Fatalf("record 1: Seq=%d TS=%d AS=%d", rec.Seq, rec.TS, rec.PeerAS)
	}
	if rec.PeerIP[:4][3] == 0 && rec.PeerIP[0] == 0 {
		t.Fatalf("peer IP not captured: %v", rec.PeerIP)
	}
	if len(rec.Upd.NLRI) != 1 || rec.Upd.NLRI[0] != pfx || rec.Upd.Attrs == nil {
		t.Fatalf("record 1 update: %+v", rec.Upd)
	}
	if err := sp.Next(&rec); err != nil {
		t.Fatal(err)
	}
	if rec.Seq != 2 || rec.TS != 5010 || len(rec.Upd.Withdrawn) != 1 {
		t.Fatalf("record 2: Seq=%d TS=%d %+v", rec.Seq, rec.TS, rec.Upd)
	}

	st := sp.Status()
	if st.Kind != "bgp" || !st.Connected || st.Peers != 1 || st.Records != 2 {
		t.Fatalf("Status: %+v", st)
	}
}

func TestSpeakerCeaseOnClose(t *testing.T) {
	var clk atomic.Uint32
	sp := newSpeaker(t, &clk, Config{})
	p, err := DialScripted(sp.Addr().String(), 65001, 90)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	go sp.Close()
	code, _, err := p.ReadNotification()
	if err != nil {
		t.Fatal(err)
	}
	if code != NotifCease {
		t.Fatalf("NOTIFICATION code %d, want cease (%d)", code, NotifCease)
	}
	var rec source.Record
	if err := sp.Next(&rec); err != io.EOF {
		t.Fatalf("Next after Close: %v", err)
	}
}

func TestSpeakerRejectsBadVersion(t *testing.T) {
	var clk atomic.Uint32
	sp := newSpeaker(t, &clk, Config{})
	conn, err := net.Dial("tcp", sp.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	p := &ScriptedPeer{conn: conn, br: bufio.NewReader(conn)}

	open := &bgp.Open{Version: 3, AS: 65001, HoldTime: 90, BGPID: [4]byte{1, 2, 3, 4}}
	if err := p.SendRaw(open.AppendWire(nil)); err != nil {
		t.Fatal(err)
	}
	code, sub, err := p.ReadNotification()
	if err != nil {
		t.Fatal(err)
	}
	if code != NotifOpenErr || sub != openBadVersion {
		t.Fatalf("NOTIFICATION %d/%d, want %d/%d", code, sub, NotifOpenErr, openBadVersion)
	}
}

// TestSpeakerOpenFourOctetAS: a speaker whose local AS is above 65535
// answers OPEN with AS_TRANS, not with the low 16 bits of its AS, which
// name some other, public AS (59904 for 4200000000).
func TestSpeakerOpenFourOctetAS(t *testing.T) {
	var clk atomic.Uint32
	sp := newSpeaker(t, &clk, Config{LocalAS: 4200000000})
	conn, err := net.Dial("tcp", sp.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	p := &ScriptedPeer{conn: conn, br: bufio.NewReader(conn)}
	if err := p.SendRaw((&bgp.Open{Version: 4, AS: 65001, HoldTime: 90, BGPID: [4]byte{1, 2, 3, 4}}).AppendWire(nil)); err != nil {
		t.Fatal(err)
	}
	frame, err := p.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	msg, _, err := bgp.DecodeMessage(frame)
	if err != nil {
		t.Fatal(err)
	}
	open, ok := msg.(*bgp.Open)
	if !ok {
		t.Fatalf("speaker answered with %T, want its OPEN", msg)
	}
	if open.AS != bgp.ASTrans {
		t.Fatalf("speaker's OPEN names AS %d, want AS_TRANS (%d)", open.AS, bgp.ASTrans)
	}
}

func TestSpeakerRejectsTinyHoldTime(t *testing.T) {
	var clk atomic.Uint32
	sp := newSpeaker(t, &clk, Config{})
	conn, err := net.Dial("tcp", sp.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	p := &ScriptedPeer{conn: conn, br: bufio.NewReader(conn)}

	open := &bgp.Open{Version: 4, AS: 65001, HoldTime: 2, BGPID: [4]byte{1, 2, 3, 4}}
	if err := p.SendRaw(open.AppendWire(nil)); err != nil {
		t.Fatal(err)
	}
	code, sub, err := p.ReadNotification()
	if err != nil {
		t.Fatal(err)
	}
	if code != NotifOpenErr || sub != openBadHoldTime {
		t.Fatalf("NOTIFICATION %d/%d, want %d/%d", code, sub, NotifOpenErr, openBadHoldTime)
	}
}

// TestSpeakerHoldTimerExpiry: a peer that negotiates a 3-second hold
// time and then goes silent gets NOTIFICATION code 4 within roughly the
// hold time, not a session that lingers forever.
func TestSpeakerHoldTimerExpiry(t *testing.T) {
	if testing.Short() {
		t.Skip("3s hold-timer wait")
	}
	var clk atomic.Uint32
	sp := newSpeaker(t, &clk, Config{})
	p, err := DialScripted(sp.Addr().String(), 65001, 3) // minimum legal hold
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	start := time.Now()
	p.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	code, _, err := p.ReadNotification()
	if err != nil {
		t.Fatal(err)
	}
	if code != NotifHoldExpired {
		t.Fatalf("NOTIFICATION code %d, want hold-expired (%d)", code, NotifHoldExpired)
	}
	if el := time.Since(start); el < 2*time.Second || el > 8*time.Second {
		t.Fatalf("hold expiry after %v, want ~3s", el)
	}
}

func TestSessionDropEmitsGap(t *testing.T) {
	var clk atomic.Uint32
	gapc := make(chan source.Gap, 1)
	sp := newSpeaker(t, &clk, Config{OnGap: func(g source.Gap) { gapc <- g }})
	p, err := DialScripted(sp.Addr().String(), 65001, 90)
	if err != nil {
		t.Fatal(err)
	}
	p.Close() // abrupt drop, no NOTIFICATION

	select {
	case g := <-gapc:
		if g.Known {
			t.Fatal("speaker cannot know the missed count, Gap.Known must be false")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no gap reported after session drop")
	}
	if st := sp.Status(); st.Gaps != 1 {
		t.Fatalf("Status.Gaps=%d, want 1", st.Gaps)
	}
}

// TestMalformedUpdateKillsSession: an UPDATE whose attribute block does
// not decode costs the peer its session (NOTIFICATION update error) but
// not the source — Next keeps serving other traffic.
func TestMalformedUpdateKillsSession(t *testing.T) {
	var clk atomic.Uint32
	sp := newSpeaker(t, &clk, Config{})
	p, err := DialScripted(sp.Addr().String(), 65001, 90)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	if err := p.SendRaw(malformedUpdate()); err != nil {
		t.Fatal(err)
	}

	// Next must reject the message without delivering it; run it in the
	// background so the queue drains.
	go func() {
		var rec source.Record
		sp.Next(&rec)
	}()

	code, _, err := p.ReadNotification()
	if err != nil {
		t.Fatal(err)
	}
	if code != NotifUpdateErr {
		t.Fatalf("NOTIFICATION code %d, want update error (%d)", code, NotifUpdateErr)
	}
}

// TestReconnectCounts: a second session after the first drops counts as
// a reconnect in Status.
func TestReconnectCounts(t *testing.T) {
	var clk atomic.Uint32
	sp := newSpeaker(t, &clk, Config{})
	// The dialer's handshake can return before the speaker's session
	// goroutine registers the peer, so each step waits for its status.
	waitStatus := func(what string, ok func(source.Status) bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for st := sp.Status(); !ok(st); st = sp.Status() {
			if time.Now().After(deadline) {
				t.Fatalf("%s: status %+v", what, st)
			}
			time.Sleep(time.Millisecond)
		}
	}
	p1, err := DialScripted(sp.Addr().String(), 65001, 90)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus("first session established", func(st source.Status) bool { return st.Peers == 1 })
	p1.Close()
	waitStatus("first session unregistered", func(st source.Status) bool { return st.Peers == 0 })
	p2, err := DialScripted(sp.Addr().String(), 65001, 90)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	waitStatus("re-accept", func(st source.Status) bool { return st.Reconnects == 1 && st.Peers == 1 })
}

// announceWire appends a single-prefix UPDATE for prefix i (10.0.0.0/24
// plus i) to dst.
func announceWire(dst []byte, i int) []byte {
	u := &bgp.Update{Attrs: testAttrs(), NLRI: []bgp.Prefix{testPrefix(i)}}
	return u.AppendWire(dst)
}

func testPrefix(i int) bgp.Prefix { return bgp.PrefixFromUint32(10<<24+uint32(i)<<8, 24) }

// nextN pulls n records from sp, failing the test unless they all arrive
// within 5 s.
func nextN(t *testing.T, sp *Speaker, n int) []source.Record {
	t.Helper()
	got := make(chan []source.Record, 1)
	go func() {
		var recs []source.Record
		for len(recs) < n {
			var rec source.Record
			if err := sp.Next(&rec); err != nil {
				break
			}
			recs = append(recs, rec)
		}
		got <- recs
	}()
	select {
	case recs := <-got:
		if len(recs) != n {
			t.Fatalf("Next delivered %d records, want %d", len(recs), n)
		}
		return recs
	case <-time.After(5 * time.Second):
		t.Fatalf("Next did not deliver %d records within 5s", n)
		return nil
	}
}

// TestSpeakerBurstBeforeNotification: UPDATEs followed by a NOTIFICATION
// in one write all reach Next, in order and under one timestamp, though
// the session ends on the NOTIFICATION right after framing them.
func TestSpeakerBurstBeforeNotification(t *testing.T) {
	var clk atomic.Uint32
	// A clock that moves on every reading: one burst, one reading.
	sp := newSpeaker(t, &clk, Config{Now: func() uint32 { return clk.Add(1) }})
	p, err := DialScripted(sp.Addr().String(), 65001, 90)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const k = 16
	var wire []byte
	for i := 0; i < k; i++ {
		wire = announceWire(wire, i)
	}
	wire = append(wire, (&bgp.Notification{Code: NotifCease}).AppendWire(nil)...)
	if err := p.SendRaw(wire); err != nil {
		t.Fatal(err)
	}
	for i, rec := range nextN(t, sp, k) {
		if rec.Seq != uint64(i+1) || len(rec.Upd.NLRI) != 1 || rec.Upd.NLRI[0] != testPrefix(i) {
			t.Fatalf("record %d: Seq=%d NLRI=%v, want Seq=%d NLRI=[%v]", i, rec.Seq, rec.Upd.NLRI, i+1, testPrefix(i))
		}
		if rec.TS != 1 {
			t.Fatalf("record %d: TS=%d, want 1 (the burst's one timestamp)", i, rec.TS)
		}
	}
}

// malformedUpdate is an UPDATE frame with no withdrawals and a 3-byte
// attribute block carrying an unknown well-known attribute (code 99): a
// decode error.
func malformedUpdate() []byte {
	body := []byte{0, 0, 0, 3, 0x40, 99, 0}
	frame := make([]byte, 0, frameHeader+len(body))
	for i := 0; i < 16; i++ {
		frame = append(frame, 0xFF)
	}
	total := frameHeader + len(body)
	frame = append(frame, byte(total>>8), byte(total), bgp.MsgUpdate)
	return append(frame, body...)
}

// TestSpeakerBurstMalformedMidway: a malformed UPDATE in the middle of a
// burst kills its session (NOTIFICATION update error). The UPDATEs
// framed before it are delivered in order, none after it, and another
// session keeps being served.
func TestSpeakerBurstMalformedMidway(t *testing.T) {
	var clk atomic.Uint32
	sp := newSpeaker(t, &clk, Config{})
	p1, err := DialScripted(sp.Addr().String(), 65001, 90)
	if err != nil {
		t.Fatal(err)
	}
	defer p1.Close()
	p2, err := DialScripted(sp.Addr().String(), 65002, 90)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()

	const good = 8
	var wire []byte
	for i := 0; i < good; i++ {
		wire = announceWire(wire, i)
	}
	wire = append(wire, malformedUpdate()...)
	for i := good; i < 2*good; i++ {
		wire = announceWire(wire, i)
	}
	if err := p1.SendRaw(wire); err != nil {
		t.Fatal(err)
	}
	for i, rec := range nextN(t, sp, good) {
		if rec.PeerAS != 65001 || rec.Upd.NLRI[0] != testPrefix(i) {
			t.Fatalf("record %d: AS %d %v, want AS 65001 %v", i, rec.PeerAS, rec.Upd.NLRI, testPrefix(i))
		}
	}

	if err := p2.SendRaw(announceWire(nil, 1000)); err != nil {
		t.Fatal(err)
	}
	if rec := nextN(t, sp, 1)[0]; rec.PeerAS != 65002 || rec.Upd.NLRI[0] != testPrefix(1000) {
		t.Fatalf("after the malformed UPDATE: AS %d %v, want the other session's %v", rec.PeerAS, rec.Upd.NLRI, testPrefix(1000))
	}
	code, _, err := p1.ReadNotification()
	if err != nil {
		t.Fatal(err)
	}
	if code != NotifUpdateErr {
		t.Fatalf("NOTIFICATION code %d, want update error (%d)", code, NotifUpdateErr)
	}
}

// TestSpeakerBurstDrainedOnClose: Close with bursts queued — one being
// walked, one waiting — and Next still delivers every UPDATE in them, in
// order, before it returns io.EOF.
func TestSpeakerBurstDrainedOnClose(t *testing.T) {
	var clk atomic.Uint32
	sp := newSpeaker(t, &clk, Config{})
	p, err := DialScripted(sp.Addr().String(), 65001, 90)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const k = 8
	send := func(from int) {
		t.Helper()
		var wire []byte
		for i := from; i < from+k; i++ {
			wire = announceWire(wire, i)
		}
		if err := p.SendRaw(wire); err != nil {
			t.Fatal(err)
		}
	}
	send(0)
	nextN(t, sp, 1) // the first burst is in hand, k-1 UPDATEs unread
	send(k)
	deadline := time.Now().Add(5 * time.Second)
	for len(sp.q) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second burst never queued")
		}
		time.Sleep(time.Millisecond)
	}
	sp.Close()

	var rec source.Record
	for i := 1; i < 2*k; i++ {
		if err := sp.Next(&rec); err != nil {
			t.Fatalf("Next after Close, record %d: %v", i, err)
		}
		if rec.Seq != uint64(i+1) || rec.Upd.NLRI[0] != testPrefix(i) {
			t.Fatalf("record %d: Seq=%d %v, want Seq=%d %v", i, rec.Seq, rec.Upd.NLRI, i+1, testPrefix(i))
		}
	}
	if err := sp.Next(&rec); err != io.EOF {
		t.Fatalf("Next after the queued bursts: %v, want io.EOF", err)
	}
}

// TestSpeakerNextAllocs: a warm session hands its UPDATEs to Next without
// allocating — no body copy per UPDATE, the burst buffers recycle. The
// sender, the session reader and Next all run inside the measured
// window, averaged over 4 096 UPDATEs.
func TestSpeakerNextAllocs(t *testing.T) {
	const n = 4096
	var clk atomic.Uint32
	sp := newSpeaker(t, &clk, Config{})
	p, err := DialScripted(sp.Addr().String(), 65001, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// AllocsPerRun runs the function once to warm up, then once measured.
	var wire []byte
	for i := 0; i < 2*n; i++ {
		wire = announceWire(wire, i)
	}
	sent := make(chan error, 1)
	go func() {
		var err error
		for b := wire; len(b) > 0 && err == nil; {
			k := min(len(b), 1<<16)
			err = p.SendRaw(b[:k])
			b = b[k:]
		}
		sent <- err
	}()
	var rec source.Record
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < n; i++ {
			if err := sp.Next(&rec); err != nil {
				t.Fatal(err)
			}
		}
	})
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if rec.Seq != 2*n {
		t.Fatalf("delivered %d UPDATEs, want %d", rec.Seq, 2*n)
	}
	per := allocs / n
	t.Logf("%.4f allocs per UPDATE (%.0f over %d)", per, allocs, n)
	if per > 0.01 {
		t.Fatalf("%.3f allocs per UPDATE, want <= 0.01", per)
	}
}
