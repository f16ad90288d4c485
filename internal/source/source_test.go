package source

import (
	"bytes"
	"io"
	"testing"
	"time"

	"moas/internal/bgp"
	"moas/internal/mrt"
)

// testArchive builds a tiny BGP4MP update archive: two announcements
// from distinct peers, one keepalive (skipped), one state change
// (skipped), one withdrawal.
func testArchive(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := mrt.NewWriter(&buf)

	upd := func(peerAS bgp.ASN, peerIP byte, u *bgp.Update) *mrt.BGP4MPMessage {
		m := &mrt.BGP4MPMessage{PeerAS: peerAS, LocalAS: 65000, Family: bgp.FamilyIPv4}
		m.PeerIP[3] = peerIP
		m.Data = u.AppendWire(nil)
		return m
	}
	attrs := &bgp.Attrs{
		Origin:  bgp.OriginIGP,
		ASPath:  bgp.Path{{Type: bgp.SegSequence, ASes: []bgp.ASN{65001, 65002}}},
		NextHop: [4]byte{192, 0, 2, 1},
	}
	p1 := bgp.MustParsePrefix("10.0.0.0/8")
	p2 := bgp.MustParsePrefix("10.1.0.0/16")

	if err := w.WriteBGP4MPMessage(1000, upd(65001, 1, &bgp.Update{Attrs: attrs, NLRI: []bgp.Prefix{p1}})); err != nil {
		t.Fatal(err)
	}
	ka := &mrt.BGP4MPMessage{PeerAS: 65001, LocalAS: 65000, Family: bgp.FamilyIPv4}
	ka.Data = bgp.AppendKeepalive(nil)
	if err := w.WriteBGP4MPMessage(1001, ka); err != nil {
		t.Fatal(err)
	}
	sc := &mrt.BGP4MPStateChange{PeerAS: 65001, LocalAS: 65000, Family: bgp.FamilyIPv4,
		OldState: mrt.StateOpenConfirm, NewState: mrt.StateEstablished}
	if err := w.WriteBGP4MPStateChange(1002, sc); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBGP4MPMessage(1003, upd(65002, 2, &bgp.Update{Attrs: attrs, NLRI: []bgp.Prefix{p2}})); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBGP4MPMessage(1004, upd(65001, 1, &bgp.Update{Withdrawn: []bgp.Prefix{p1}})); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestFileSourceDeliversUpdatesOnly(t *testing.T) {
	in := new(bgp.AttrsInterner)
	s := NewFileReader(bytes.NewReader(testArchive(t)), "mem", in)

	var rec Record
	var got []Record
	for {
		err := s.Next(&rec)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		// Copy what the engine would retain: slices are reused by Next.
		r := rec
		r.Upd.NLRI = append([]bgp.Prefix(nil), rec.Upd.NLRI...)
		r.Upd.Withdrawn = append([]bgp.Prefix(nil), rec.Upd.Withdrawn...)
		got = append(got, r)
	}
	if len(got) != 3 {
		t.Fatalf("delivered %d records, want 3 (keepalive and state change skipped)", len(got))
	}
	for i, r := range got {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d: Seq=%d, want %d", i, r.Seq, i+1)
		}
	}
	if got[0].TS != 1000 || got[1].TS != 1003 || got[2].TS != 1004 {
		t.Fatalf("timestamps %d,%d,%d, want 1000,1003,1004", got[0].TS, got[1].TS, got[2].TS)
	}
	if got[0].PeerAS != 65001 || got[1].PeerAS != 65002 {
		t.Fatalf("peer ASes %d,%d", got[0].PeerAS, got[1].PeerAS)
	}
	if got[0].Upd.Attrs == nil || got[1].Upd.Attrs == nil {
		t.Fatal("announcement attrs missing")
	}
	if got[0].Upd.Attrs != got[1].Upd.Attrs {
		t.Fatal("identical attr blocks not interned to one pointer")
	}
	if len(got[2].Upd.Withdrawn) != 1 || got[2].Upd.Attrs != nil {
		t.Fatalf("withdrawal record malformed: %+v", got[2].Upd)
	}

	st := s.Status()
	if st.Kind != "file" || st.Records != 3 || st.Connected {
		t.Fatalf("Status after EOF: %+v", st)
	}
	// EOF is sticky.
	if err := s.Next(&rec); err != io.EOF {
		t.Fatalf("Next after EOF: %v", err)
	}
}

func TestFileSourceCloseUnsticksNext(t *testing.T) {
	in := new(bgp.AttrsInterner)
	s := NewFileReader(bytes.NewReader(testArchive(t)), "mem", in)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var rec Record
	if err := s.Next(&rec); err != io.EOF {
		t.Fatalf("Next after Close: %v", err)
	}
}

func TestBackoffDoublesJitteredAndCaps(t *testing.T) {
	b := &Backoff{Base: 100 * time.Millisecond, Max: 800 * time.Millisecond}
	expect := []time.Duration{100, 200, 400, 800, 800} // ms, pre-jitter
	for i, ms := range expect {
		d := b.Next()
		lo, hi := ms*time.Millisecond/2, 3*ms*time.Millisecond/2
		if d < lo || d >= hi {
			t.Fatalf("attempt %d: delay %v outside [%v, %v)", i, d, lo, hi)
		}
	}
	b.Reset()
	if d := b.Next(); d >= 150*time.Millisecond {
		t.Fatalf("after Reset: delay %v, want < 150ms", d)
	}
}

func TestBackoffZeroValueUsesDefaults(t *testing.T) {
	var b Backoff
	d := b.Next()
	if d < DefaultBase/2 || d >= 3*DefaultBase/2 {
		t.Fatalf("zero-value first delay %v outside default band", d)
	}
}
