package stream

import (
	"testing"

	"moas/internal/bgp"
)

// TestUpsertAcrossInternerEpoch pins shard.upsertRoute's contract across
// an AttrsInterner.SetCap epoch rebuild: a route re-announced with
// byte-identical attributes interned in a *later* epoch arrives as a
// different pointer, so the pointer-equality fast path misses and the
// Attrs.Equal fallback must classify it as no-change — no reassessment,
// and above all no dropped or duplicated conflict events. The conflict's
// event log must read exactly start → origin-change → end when a real
// change finally happens.
func TestUpsertAcrossInternerEpoch(t *testing.T) {
	const capN = 8
	var delivered eventSink
	e := New(Config{Shards: 1, OnEvent: delivered.add})
	defer e.Close()
	in := e.Interner()
	in.SetCap(capN)

	intern := func(first, mid, origin bgp.ASN) *bgp.Attrs {
		t.Helper()
		a := &bgp.Attrs{
			Origin:  bgp.OriginIGP,
			ASPath:  bgp.Path{{Type: bgp.SegSequence, ASes: []bgp.ASN{first, mid, origin}}},
			NextHop: [4]byte{192, 0, 2, 1},
		}
		got, err := in.Intern(a.AppendWire(nil), false)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}

	p := bgp.MustParsePrefix("10.0.0.0/24")
	q := bgp.MustParsePrefix("10.0.1.0/24")
	var peerA, peerB, peerC PeerKey
	peerA.IP[3], peerA.AS = 1, 65001
	peerB.IP[3], peerB.AS = 2, 65002
	peerC.IP[3], peerC.AS = 3, 65003

	// Establish the conflict: two peers, two origins.
	aOld := intern(65001, 1000, 2000)
	e.ApplyUpdate(0, peerA, &bgp.Update{Attrs: aOld, NLRI: []bgp.Prefix{p}})
	e.ApplyUpdate(0, peerB, &bgp.Update{Attrs: intern(65002, 1001, 2001), NLRI: []bgp.Prefix{p}})
	e.Sync()
	if st := e.Stats(); st.Events != 1 || st.ActiveConflicts != 1 {
		t.Fatalf("after conflict start: %d events, %d active, want 1/1", st.Events, st.ActiveConflicts)
	}

	// Roll the interner through multiple epochs with distinct blocks on
	// an unrelated prefix; the conflict's stored attrs pointer now
	// belongs to a dead epoch.
	for i := 0; i < capN*4; i++ {
		e.ApplyUpdate(0, peerC, &bgp.Update{
			Attrs: intern(65003, 1002, bgp.ASN(3000+i)),
			NLRI:  []bgp.Prefix{q},
		})
	}
	e.Sync()
	if got := in.Epochs(); got < 2 {
		t.Fatalf("interner epochs %d after %d distinct blocks at cap %d, want >= 2", got, capN*4, capN)
	}

	// Re-intern the original wire: a fresh canonical pointer, same bytes.
	aNew := intern(65001, 1000, 2000)
	if aNew == aOld {
		t.Fatal("interner returned the pre-rollover pointer; epoch rebuild did not happen")
	}
	e.ApplyUpdate(0, peerA, &bgp.Update{Attrs: aNew, NLRI: []bgp.Prefix{p}})
	e.Sync()
	if st := e.Stats(); st.Events != 1 || st.ActiveConflicts != 1 {
		t.Fatalf("equal re-announce across epoch changed state: %d events, %d active, want 1/1",
			st.Events, st.ActiveConflicts)
	}

	// A genuine origin change and a withdrawal must still land as exactly
	// one event each.
	e.CloseDay(0)
	e.ApplyUpdate(1, peerA, &bgp.Update{Attrs: intern(65001, 1000, 2003), NLRI: []bgp.Prefix{p}})
	e.ApplyUpdate(1, peerB, &bgp.Update{Withdrawn: []bgp.Prefix{p}})
	e.Sync()
	if st := e.Stats(); st.Events != 3 || st.ActiveConflicts != 0 || st.TotalConflicts != 1 {
		t.Fatalf("after change+withdraw: %d events, %d active, %d total, want 3/0/1",
			st.Events, st.ActiveConflicts, st.TotalConflicts)
	}

	var evs []Event
	for _, ev := range delivered.sorted() {
		if ev.Prefix == p {
			evs = append(evs, ev)
		}
	}
	if len(evs) != 3 {
		t.Fatalf("%d events for %s, want 3: %+v", len(evs), p, evs)
	}
	wantSeq := []struct {
		typ EventType
		seq uint64
	}{{EventConflictStart, 1}, {EventOriginChange, 2}, {EventConflictEnd, 3}}
	for i, want := range wantSeq {
		if evs[i].Type != want.typ || evs[i].Seq != want.seq {
			t.Fatalf("event %d: type %v seq %d, want %v/%d", i, evs[i].Type, evs[i].Seq, want.typ, want.seq)
		}
	}
}
