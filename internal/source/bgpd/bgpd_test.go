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
		cfg.Interner = bgp.NewAttrsInterner(false)
	}
	if cfg.LocalAS == 0 {
		cfg.LocalAS = 65000
	}
	cfg.BGPID = [4]byte{192, 0, 2, 1}
	cfg.Addr = "127.0.0.1:0"
	cfg.Now = clk.Load
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

	// Update body: no withdrawals, a 3-byte attr block carrying an
	// unknown well-known attribute (code 99) — a decode error.
	body := []byte{0, 0, 0, 3, 0x40, 99, 0}
	frame := make([]byte, 0, 32)
	for i := 0; i < 16; i++ {
		frame = append(frame, 0xFF)
	}
	total := frameHeader + len(body)
	frame = append(frame, byte(total>>8), byte(total), bgp.MsgUpdate)
	frame = append(frame, body...)
	if err := p.SendRaw(frame); err != nil {
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
