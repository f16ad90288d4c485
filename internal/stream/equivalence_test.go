package stream

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"moas/internal/bgp"
	"moas/internal/mrt"
	"moas/internal/source"
	"moas/internal/source/bgpd"
	"moas/internal/source/rislive"
)

// The cross-source equivalence fixture: the same three updates, each
// expressed both as a decoded bgp.Update (the MRT archive and BGP wire
// paths) and as a RIS Live JSON message. All peers share IP 127.0.0.1 —
// the address a loopback BGP session necessarily reports — so the BGP
// path can produce identical peer keys; peers are told apart by AS.
type eqUpdate struct {
	ts     uint32
	peerAS bgp.ASN
	upd    *bgp.Update
	msg    rislive.Msg
}

const eqDay = 12000 // absolute UTC observation day of the fixture

func eqFixture() []eqUpdate {
	const prefix = "10.0.0.0/8"
	p := bgp.MustParsePrefix(prefix)
	attrs := func(hops ...bgp.ASN) *bgp.Attrs {
		return &bgp.Attrs{
			Origin:  bgp.OriginIGP,
			ASPath:  bgp.Path{{Type: bgp.SegSequence, ASes: hops}},
			NextHop: [4]byte{192, 0, 2, 1},
		}
	}
	t1 := uint32(eqDay*86400 + 10)
	t2 := uint32(eqDay*86400 + 20)
	t3 := uint32((eqDay+1)*86400 + 30) // crosses midnight: closes day eqDay
	return []eqUpdate{
		{
			ts: t1, peerAS: 65001,
			upd: &bgp.Update{Attrs: attrs(65001, 70), NLRI: []bgp.Prefix{p}},
			msg: rislive.Msg{
				Timestamp: float64(t1), Peer: "127.0.0.1", PeerASN: 65001,
				Path: []any{65001, 70}, Origin: "IGP",
				Announcements: []rislive.Announcement{{NextHop: "192.0.2.1", Prefixes: []string{prefix}}},
			},
		},
		{
			ts: t2, peerAS: 65002,
			upd: &bgp.Update{Attrs: attrs(65002, 71), NLRI: []bgp.Prefix{p}},
			msg: rislive.Msg{
				Timestamp: float64(t2), Peer: "127.0.0.1", PeerASN: 65002,
				Path: []any{65002, 71}, Origin: "IGP",
				Announcements: []rislive.Announcement{{NextHop: "192.0.2.1", Prefixes: []string{prefix}}},
			},
		},
		{
			ts: t3, peerAS: 65002,
			upd: &bgp.Update{Withdrawn: []bgp.Prefix{p}},
			msg: rislive.Msg{
				Timestamp: float64(t3), Peer: "127.0.0.1", PeerASN: 65002,
				Withdrawals: []string{prefix},
			},
		},
	}
}

// eqNow pins the run's wall clock inside the fixture's first day so the
// idle ticker never closes days ahead of the records.
func eqNow() uint32 { return eqDay*86400 + 50 }

func waitMessages(t *testing.T, e *Engine, n uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for e.Stats().Messages < n {
		if time.Now().After(deadline) {
			t.Fatalf("engine stuck at %d messages, want %d", e.Stats().Messages, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// eqCheckpoint settles the engine and serializes its complete state.
// The checkpoint codec sorts everything it emits, so identical state
// means identical bytes.
func eqCheckpoint(t *testing.T, e *Engine) []byte {
	t.Helper()
	e.Close()
	return checkpointBytes(t, e)
}

// TestCrossSourceEquivalence feeds the identical update sequence through
// all three sources — an MRT archive via the file reader, a fake RIS
// Live websocket feed, and real BGP sessions against the passive speaker
// — and requires the resulting engine checkpoints to be byte-identical:
// same registry, same route tables, same event log, same cursors. This
// is the property that makes live operation trustworthy: the transport
// contributes nothing to the analysis.
func TestCrossSourceEquivalence(t *testing.T) {
	fix := eqFixture()

	// Path 1: MRT archive through the file source.
	var buf bytes.Buffer
	w := mrt.NewWriter(&buf)
	for _, u := range fix {
		m := &mrt.BGP4MPMessage{PeerAS: u.peerAS, LocalAS: 65000, Family: bgp.FamilyIPv4}
		copy(m.PeerIP[:4], []byte{127, 0, 0, 1})
		m.Data = u.upd.AppendWire(nil)
		if err := w.WriteBGP4MPMessage(u.ts, m); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	eFile := New(Config{Shards: 2})
	fsrc := source.NewFileReader(bytes.NewReader(buf.Bytes()), "mem", eFile.Interner())
	if err := eFile.Run(fsrc, &RunOptions{Now: eqNow}); err != nil {
		t.Fatalf("file run: %v", err)
	}

	// Path 2: fake RIS Live feed over a real websocket.
	fake, err := rislive.NewFake()
	if err != nil {
		t.Fatal(err)
	}
	defer fake.Close()
	eRIS := New(Config{Shards: 2})
	cl, err := rislive.Dial(rislive.Config{URL: fake.URL(), Interner: eRIS.Interner()})
	if err != nil {
		t.Fatal(err)
	}
	risStop := make(chan struct{})
	risDone := make(chan error, 1)
	go func() {
		risDone <- eRIS.Run(cl, &RunOptions{Stop: risStop, Now: eqNow, Ticks: msTicks(t)})
	}()
	if err := fake.WaitConnected(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, u := range fix {
		if err := fake.Send(u.msg); err != nil {
			t.Fatal(err)
		}
	}
	waitMessages(t, eRIS, uint64(len(fix)))
	close(risStop)
	if err := <-risDone; err != ErrReplayStopped {
		t.Fatalf("rislive run: %v, want ErrReplayStopped", err)
	}

	// Path 3: scripted BGP sessions into the passive speaker. BGP frames
	// carry no timestamps — the speaker stamps records at receipt — so
	// the fake clock advances to each update's fixture time, and the
	// next update is only sent once the engine consumed the previous one.
	var clk atomic.Uint32
	eBGP := New(Config{Shards: 2})
	sp, err := bgpd.Listen(bgpd.Config{
		Addr:     "127.0.0.1:0",
		LocalAS:  64512,
		BGPID:    [4]byte{192, 0, 2, 250},
		Interner: eBGP.Interner(),
		Now:      clk.Load,
	})
	if err != nil {
		t.Fatal(err)
	}
	bgpStop := make(chan struct{})
	bgpDone := make(chan error, 1)
	go func() {
		bgpDone <- eBGP.Run(sp, &RunOptions{Stop: bgpStop, Now: eqNow, Ticks: msTicks(t)})
	}()
	peers := map[bgp.ASN]*bgpd.ScriptedPeer{}
	for _, as := range []bgp.ASN{65001, 65002} {
		p, err := bgpd.DialScripted(sp.Addr().String(), as, 90)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		peers[as] = p
	}
	for i, u := range fix {
		clk.Store(u.ts)
		if err := peers[u.peerAS].SendUpdate(u.upd); err != nil {
			t.Fatal(err)
		}
		waitMessages(t, eBGP, uint64(i+1))
	}
	close(bgpStop)
	if err := <-bgpDone; err != ErrReplayStopped {
		t.Fatalf("bgp run: %v, want ErrReplayStopped", err)
	}

	// The registries must agree in depth (diffRegistries pinpoints the
	// first divergence on failure)...
	diffRegistries(t, eFile.Registry(), eRIS.Registry())
	diffRegistries(t, eFile.Registry(), eBGP.Registry())
	if d := eFile.Stats().LastClosedDay; d != eqDay {
		t.Fatalf("LastClosedDay=%d, want %d (absolute UTC day)", d, eqDay)
	}

	// ...and the full serialized states must be byte-identical.
	ckFile := eqCheckpoint(t, eFile)
	ckRIS := eqCheckpoint(t, eRIS)
	ckBGP := eqCheckpoint(t, eBGP)
	if !bytes.Equal(ckFile, ckRIS) {
		t.Errorf("file vs rislive checkpoints differ:\nfile: %s\nris:  %s", ckFile, ckRIS)
	}
	if !bytes.Equal(ckFile, ckBGP) {
		t.Errorf("file vs bgp checkpoints differ:\nfile: %s\nbgp:  %s", ckFile, ckBGP)
	}
}
