package stream

import (
	"testing"

	"moas/internal/bgp"
	"moas/internal/epilog"
)

// TestEpisodeLogBoundedMemory: a long synthetic run — daily conflict
// flaps for over a year, far past the month scale the paper's tables
// cover — keeps every closed episode durable and queryable on disk
// while the engine's RAM keeps no event at all. This is the episode log's
// reason to exist: without it, historical queries would require an
// unbounded in-memory event log.
func TestEpisodeLogBoundedMemory(t *testing.T) {
	const days = 400
	lg, err := epilog.Open(t.TempDir(), epilog.Options{RotateBytes: 1 << 10, CompactEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()

	e := New(Config{Shards: 1, EpisodeLog: lg})
	p := bgp.MustParsePrefix("10.0.0.0/8")
	peerA := PeerKey{IP: [16]byte{1}, AS: 65001}
	peerB := PeerKey{IP: [16]byte{2}, AS: 65002}
	attrs := func(transit, origin bgp.ASN) *bgp.Attrs {
		return &bgp.Attrs{ASPath: bgp.Seq(transit, origin)}
	}
	// peerA holds the prefix throughout; peerB's daily announce/withdraw
	// opens and closes a one-day MOAS episode every single day.
	e.ApplyUpdate(0, peerA, &bgp.Update{Attrs: attrs(65001, 70), NLRI: []bgp.Prefix{p}})
	for d := 0; d < days; d++ {
		e.ApplyUpdate(d, peerB, &bgp.Update{Attrs: attrs(65002, 71), NLRI: []bgp.Prefix{p}})
		e.ApplyUpdate(d, peerB, &bgp.Update{Withdrawn: []bgp.Prefix{p}})
		e.CloseDay(d)
	}
	e.Close()

	// Every episode is on disk and reads back folded: one closed
	// single-day episode per day, none left open.
	eps, err := lg.Query(epilog.Query{Class: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(eps) != days {
		t.Fatalf("query returned %d episodes, want %d", len(eps), days)
	}
	for i, ep := range eps {
		if ep.Open || ep.Start != i || ep.End != i || ep.Prefix != p {
			t.Fatalf("episode %d = %+v, want closed day-%d episode for %v", i, ep, i, p)
		}
		if len(ep.Origins) != 2 || ep.Origins[0] != 70 || ep.Origins[1] != 71 {
			t.Fatalf("episode %d origins = %v, want [70 71]", i, ep.Origins)
		}
	}

	// The run was long enough to exercise rotation and compaction, and
	// the log never degraded.
	st := lg.Stats()
	if st.Appended != 2*days {
		t.Fatalf("Appended=%d, want %d (an open and a close record per day)", st.Appended, 2*days)
	}
	if st.Segments < 2 || st.Compactions == 0 {
		t.Fatalf("Segments=%d Compactions=%d: rotation/compaction never ran", st.Segments, st.Compactions)
	}
	if h := lg.Health(); h.Degraded {
		t.Fatalf("log degraded: %+v", h)
	}
}
