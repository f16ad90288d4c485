package rislive

import (
	"encoding/json"
	"io"
	"testing"
	"time"

	"moas/internal/bgp"
	"moas/internal/source"
)

func newPair(t *testing.T, cfg Config) (*Fake, *Client) {
	t.Helper()
	f, err := NewFake()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	cfg.URL = f.URL()
	if cfg.Interner == nil {
		cfg.Interner = new(bgp.AttrsInterner)
	}
	if cfg.Backoff.Base == 0 {
		cfg.Backoff = source.Backoff{Base: 5 * time.Millisecond, Max: 40 * time.Millisecond}
	}
	c, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := f.WaitConnected(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	return f, c
}

func TestClientDeliversUpdates(t *testing.T) {
	in := new(bgp.AttrsInterner)
	f, c := newPair(t, Config{Interner: in})

	f.Send(Msg{
		Timestamp: 86400,
		Peer:      "192.0.2.9",
		PeerASN:   65001,
		Path:      []any{uint32(65001), uint32(65002)},
		Origin:    "igp",
		Announcements: []Announcement{
			{NextHop: "192.0.2.9", Prefixes: []string{"10.0.0.0/8", "10.1.0.0/16"}},
			{NextHop: "192.0.2.10", Prefixes: []string{"10.2.0.0/16"}},
		},
		Withdrawals: []string{"10.3.0.0/16"},
	})

	var rec source.Record
	if err := c.Next(&rec); err != nil {
		t.Fatal(err)
	}
	if rec.Seq != 1 || rec.TS != 86400 || rec.PeerAS != 65001 {
		t.Fatalf("record 1: Seq=%d TS=%d AS=%d", rec.Seq, rec.TS, rec.PeerAS)
	}
	if rec.PeerIP != ([16]byte{192, 0, 2, 9}) {
		t.Fatalf("peer IP %v", rec.PeerIP)
	}
	if len(rec.Upd.NLRI) != 2 || len(rec.Upd.Withdrawn) != 1 {
		t.Fatalf("record 1 update: %+v", rec.Upd)
	}
	a1 := rec.Upd.Attrs
	if a1 == nil || a1.NextHop != ([4]byte{192, 0, 2, 9}) || len(a1.ASPath) != 1 {
		t.Fatalf("record 1 attrs: %+v", a1)
	}

	// The second announcement group fans out into its own record with
	// its own next hop, withdrawals not repeated.
	if err := c.Next(&rec); err != nil {
		t.Fatal(err)
	}
	if rec.Seq != 2 || len(rec.Upd.NLRI) != 1 || len(rec.Upd.Withdrawn) != 0 {
		t.Fatalf("record 2: %+v", rec.Upd)
	}
	if rec.Upd.Attrs.NextHop != ([4]byte{192, 0, 2, 10}) {
		t.Fatalf("record 2 next hop: %v", rec.Upd.Attrs.NextHop)
	}

	// The client's re-encoded attribute block is the 4-octet encoding of
	// the message's attributes, canonical in the shared interner.
	wire4 := (&bgp.Attrs{
		Origin:  bgp.OriginIGP,
		ASPath:  bgp.Path{{Type: bgp.SegSequence, ASes: []bgp.ASN{65001, 65002}}},
		NextHop: [4]byte{192, 0, 2, 9},
	}).AppendWireEx(nil, true)
	canon, err := in.Intern(wire4, true)
	if err != nil {
		t.Fatal(err)
	}
	if canon != a1 {
		t.Fatal("JSON-derived attrs did not intern to the 4-octet block's pointer")
	}
}

// TestClientInternsFourOctetPaths: two messages whose path holds an AS
// above 65535 share one interned block, and the interner counts it once.
func TestClientInternsFourOctetPaths(t *testing.T) {
	in := new(bgp.AttrsInterner)
	f, c := newPair(t, Config{Interner: in})
	for _, pfx := range []string{"10.0.0.0/8", "11.0.0.0/8"} {
		f.Send(Msg{
			Timestamp:     86400,
			Peer:          "192.0.2.9",
			PeerASN:       65001,
			Path:          []any{uint32(65001), uint32(4200000000)},
			Announcements: []Announcement{{NextHop: "192.0.2.9", Prefixes: []string{pfx}}},
		})
	}
	var attrs [2]*bgp.Attrs
	for i := range attrs {
		var rec source.Record
		if err := c.Next(&rec); err != nil {
			t.Fatal(err)
		}
		attrs[i] = rec.Upd.Attrs
	}
	if got, _ := attrs[0].ASPath.Origin(); got != 4200000000 {
		t.Fatalf("origin %v, want 4200000000", got)
	}
	if attrs[0] != attrs[1] {
		t.Fatal("two messages with one 4-octet path gave two blocks")
	}
	if in.Len() != 1 {
		t.Fatalf("interner holds %d blocks, want 1", in.Len())
	}
}

func TestClientWithdrawOnly(t *testing.T) {
	f, c := newPair(t, Config{})
	f.Send(Msg{Timestamp: 100, Peer: "192.0.2.9", PeerASN: 65001, Withdrawals: []string{"10.0.0.0/8"}})
	var rec source.Record
	if err := c.Next(&rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.Upd.Withdrawn) != 1 || rec.Upd.Attrs != nil || len(rec.Upd.NLRI) != 0 {
		t.Fatalf("withdraw-only record: %+v", rec.Upd)
	}
}

func TestClientReconnectAndKnownGap(t *testing.T) {
	gaps := make(chan source.Gap, 4)
	f, c := newPair(t, Config{OnGap: func(g source.Gap) { gaps <- g }})

	send := func(n int) {
		for i := 0; i < n; i++ {
			f.Send(Msg{Timestamp: 100, Peer: "192.0.2.9", PeerASN: 65001, Withdrawals: []string{"10.0.0.0/8"}})
		}
	}
	var rec source.Record
	send(2)
	for i := 0; i < 2; i++ {
		if err := c.Next(&rec); err != nil {
			t.Fatal(err)
		}
	}

	// Kill discards unread bytes; make sure the initial subscription has
	// been consumed before severing or the count below races.
	if err := f.WaitSubscribed(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	f.Kill()
	send(3) // lost: no subscriber attached

	// Reconnection happens inside Next (the source is pull-based), so a
	// Next must be pending while the transport is down.
	type res struct {
		rec source.Record
		err error
	}
	done := make(chan res, 1)
	go func() {
		var r source.Record
		err := c.Next(&r)
		done <- res{r, err}
	}()
	if err := f.WaitConnected(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	send(1)
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	rec = r.rec
	if rec.Seq != 3 {
		t.Fatalf("post-reconnect record Seq=%d, want 3", rec.Seq)
	}
	select {
	case g := <-gaps:
		if !g.Known || g.Missed != 3 {
			t.Fatalf("gap %+v, want Known=true Missed=3", g)
		}
	default:
		t.Fatal("no gap emitted across reconnect")
	}
	st := c.Status()
	if st.Reconnects != 1 || st.Gaps != 1 || !st.Connected {
		t.Fatalf("Status: %+v", st)
	}
	// One subscription per successful connect: initial + resubscribe.
	if err := f.WaitSubscribed(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestClientUnknownGapWithoutSeq(t *testing.T) {
	gaps := make(chan source.Gap, 4)
	f, c := newPair(t, Config{OnGap: func(g source.Gap) { gaps <- g }})
	f.NumberMessages.Store(false)

	f.Kill()
	done := make(chan error, 1)
	go func() {
		var rec source.Record
		done <- c.Next(&rec)
	}()
	if err := f.WaitConnected(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	f.Send(Msg{Timestamp: 100, Peer: "192.0.2.9", PeerASN: 65001, Withdrawals: []string{"10.0.0.0/8"}})
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	select {
	case g := <-gaps:
		if g.Known {
			t.Fatalf("gap %+v, want Known=false without server sequencing", g)
		}
	default:
		t.Fatal("no gap emitted across reconnect")
	}
}

func TestClientCloseUnblocksNext(t *testing.T) {
	_, c := newPair(t, Config{})
	done := make(chan error, 1)
	go func() {
		var rec source.Record
		done <- c.Next(&rec)
	}()
	time.Sleep(20 * time.Millisecond) // let Next block on the socket
	c.Close()
	select {
	case err := <-done:
		if err != io.EOF {
			t.Fatalf("Next after Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next did not unblock on Close")
	}
}

func toRaw(t *testing.T, els []any) []json.RawMessage {
	t.Helper()
	out := make([]json.RawMessage, len(els))
	for i, el := range els {
		b, err := json.Marshal(el)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = b
	}
	return out
}

func TestParsePathSegments(t *testing.T) {
	raw := []any{uint32(1), uint32(2), []uint32{7, 8}, uint32(3)}
	jr := toRaw(t, raw)
	path, err := parsePath(jr)
	if err != nil {
		t.Fatal(err)
	}
	want := bgp.Path{
		{Type: bgp.SegSequence, ASes: []bgp.ASN{1, 2}},
		{Type: bgp.SegSet, ASes: []bgp.ASN{7, 8}},
		{Type: bgp.SegSequence, ASes: []bgp.ASN{3}},
	}
	if !path.Equal(want) {
		t.Fatalf("path %+v, want %+v", path, want)
	}

	// An empty AS_SET adds no segment, so the path keeps its origin.
	path, err = parsePath(toRaw(t, []any{uint32(1), uint32(2), []uint32{}}))
	if err != nil {
		t.Fatal(err)
	}
	if origin, ok := path.Origin(); !ok || origin != 2 {
		t.Fatalf("path %+v ending in an empty set: origin %d, %v; want 2", path, origin, ok)
	}

	// A hop or AS_SET member past 2^32-1 is no AS number: refused, not
	// truncated to its low 32 bits.
	for _, raw := range [][]any{
		{uint64(3356), uint64(1) << 32},
		{uint64(3356), []uint64{7, 1<<32 + 2}},
		{uint64(3356), uint64(1<<32 + 1), []uint64{1<<32 + 2}},
		{-1},
	} {
		if path, err := parsePath(toRaw(t, raw)); err == nil {
			t.Fatalf("parsePath(%v) accepted as %v", raw, path)
		}
	}
	if path, err := parsePath(toRaw(t, []any{uint64(1<<32 - 1)})); err != nil || path[0].ASes[0] != 1<<32-1 {
		t.Fatalf("parsePath of 2^32-1: %v, %v", path, err)
	}
}

// TestIngestRefusesTimestampOutOfRange: a record timestamp is uint32 Unix
// seconds, so a message stamped before 1970 or past 2106 is refused, not
// wrapped into a date decades away; the bounds themselves are accepted.
func TestIngestRefusesTimestampOutOfRange(t *testing.T) {
	msg := func(ts string) []byte {
		return []byte(`{"type":"ris_message","data":{"timestamp":` + ts +
			`,"peer":"192.0.2.9","peer_asn":"65001","withdrawals":["10.0.0.0/8"]}}`)
	}
	c := &Client{cfg: Config{Interner: new(bgp.AttrsInterner)}}
	for _, ts := range []string{"-5", "-0.5", "1e12", "4294967296"} {
		if err := c.ingest(msg(ts)); err == nil {
			t.Fatalf("timestamp %s accepted as %d", ts, c.pending[len(c.pending)-1].ts)
		}
	}
	if len(c.pending) != 0 {
		t.Fatalf("refused messages left %d pending records", len(c.pending))
	}
	for _, ts := range []string{"0", "86400.75", "4294967295"} {
		if err := c.ingest(msg(ts)); err != nil {
			t.Fatalf("timestamp %s refused: %v", ts, err)
		}
	}
	if got := c.pending; len(got) != 3 || got[0].ts != 0 || got[1].ts != 86400 || got[2].ts != 4294967295 {
		t.Fatalf("pending %+v, want timestamps 0, 86400 and 4294967295", got)
	}
}

func TestParseIPv4Rejects(t *testing.T) {
	for _, s := range []string{
		"", "1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d", "1..2.3",
		"010.0.0.1",                             // leading zero: refused, as net/netip refuses it
		"::1", "2001:db8::1", "::ffff:10.0.0.1", // next hops and peers stay IPv4-only
		"10.0.0.1%eth0", " 10.0.0.1",
	} {
		if b, err := parseIPv4(s); err == nil {
			t.Fatalf("parseIPv4(%q) accepted as %v", s, b)
		}
	}
	if b, err := parseIPv4("10.255.0.1"); err != nil || b != [4]byte{10, 255, 0, 1} {
		t.Fatalf("parseIPv4 valid: %v %v", b, err)
	}
}

// TestParsePrefixesKeepsIPv4: IPv6 prefixes, a 4-in-6 one included, are
// dropped from a message, not an error; text no family spells is.
func TestParsePrefixesKeepsIPv4(t *testing.T) {
	got, err := parsePrefixes([]string{"2001:db8::/32", "10.0.0.0/8", "::ffff:10.0.0.0/104"})
	if err != nil || len(got) != 1 || got[0] != bgp.MustParsePrefix("10.0.0.0/8") {
		t.Fatalf("parsePrefixes = %v, %v; want [10.0.0.0/8]", got, err)
	}
	if _, err := parsePrefixes([]string{"10.0.0.0/8", "010.0.0.0/8"}); err == nil {
		t.Fatal("parsePrefixes accepted a leading-zero octet")
	}
}
