package bgp

import (
	"errors"
	"testing"
)

func TestOpenRoundTrip(t *testing.T) {
	m := &Open{Version: 4, AS: 6447, HoldTime: 180, BGPID: [4]byte{198, 32, 162, 100}, OptParams: []byte{1, 2, 3}}
	enc := m.AppendWire(nil)
	got, n, err := DecodeMessage(enc)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(enc) {
		t.Fatalf("consumed %d of %d", n, len(enc))
	}
	o, ok := got.(*Open)
	if !ok {
		t.Fatalf("decoded %T", got)
	}
	if o.Version != 4 || o.AS != 6447 || o.HoldTime != 180 || o.BGPID != m.BGPID || string(o.OptParams) != string(m.OptParams) {
		t.Fatalf("open mismatch: %+v", o)
	}
}

// TestOpenFourOctetAS: an OPEN for an AS above 65535 carries AS_TRANS,
// not the AS's low 16 bits (4200000000 would read as AS 59904).
func TestOpenFourOctetAS(t *testing.T) {
	for _, c := range []struct{ as, want ASN }{{65535, 65535}, {65536, ASTrans}, {4200000000, ASTrans}} {
		got, _, err := DecodeMessage((&Open{Version: 4, AS: c.as, HoldTime: 90}).AppendWire(nil))
		if err != nil {
			t.Fatal(err)
		}
		if o := got.(*Open); o.AS != c.want {
			t.Errorf("OPEN for AS %d reads AS %d, want %d", c.as, o.AS, c.want)
		}
	}
}

func TestUpdateRoundTrip(t *testing.T) {
	m := &Update{
		Withdrawn: []Prefix{MustParsePrefix("10.0.0.0/8")},
		Attrs:     sampleAttrs(),
		NLRI:      []Prefix{MustParsePrefix("198.51.100.0/24"), MustParsePrefix("203.0.113.0/24")},
	}
	enc := m.AppendWire(nil)
	got, _, err := DecodeMessage(enc)
	if err != nil {
		t.Fatal(err)
	}
	u, ok := got.(*Update)
	if !ok {
		t.Fatalf("decoded %T", got)
	}
	if len(u.Withdrawn) != 1 || u.Withdrawn[0] != m.Withdrawn[0] {
		t.Fatalf("withdrawn mismatch: %v", u.Withdrawn)
	}
	if len(u.NLRI) != 2 || u.NLRI[0] != m.NLRI[0] || u.NLRI[1] != m.NLRI[1] {
		t.Fatalf("nlri mismatch: %v", u.NLRI)
	}
	if !u.Attrs.Equal(m.Attrs) {
		t.Fatalf("attrs mismatch")
	}
}

func TestUpdateWithdrawOnly(t *testing.T) {
	m := &Update{Withdrawn: []Prefix{MustParsePrefix("10.0.0.0/8")}}
	got, _, err := DecodeMessage(m.AppendWire(nil))
	if err != nil {
		t.Fatal(err)
	}
	u := got.(*Update)
	if u.Attrs != nil || len(u.NLRI) != 0 || len(u.Withdrawn) != 1 {
		t.Fatalf("withdraw-only mismatch: %+v", u)
	}
}

func TestNotificationRoundTrip(t *testing.T) {
	m := &Notification{Code: 6, Subcode: 2, Data: []byte("bye")}
	got, _, err := DecodeMessage(m.AppendWire(nil))
	if err != nil {
		t.Fatal(err)
	}
	nt := got.(*Notification)
	if nt.Code != 6 || nt.Subcode != 2 || string(nt.Data) != "bye" {
		t.Fatalf("notification mismatch: %+v", nt)
	}
}

func TestKeepaliveRoundTrip(t *testing.T) {
	enc := AppendKeepalive(nil)
	got, n, err := DecodeMessage(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got != nil || n != headerLen {
		t.Fatalf("keepalive = (%v, %d)", got, n)
	}
}

func TestDecodeMessageErrors(t *testing.T) {
	valid := AppendKeepalive(nil)

	short := valid[:10]
	if _, _, err := DecodeMessage(short); err == nil {
		t.Error("short header accepted")
	}

	badMarker := append([]byte(nil), valid...)
	badMarker[0] = 0
	if _, _, err := DecodeMessage(badMarker); err == nil {
		t.Error("bad marker accepted")
	}

	badLen := append([]byte(nil), valid...)
	badLen[16], badLen[17] = 0, 5 // length < header
	if _, _, err := DecodeMessage(badLen); err == nil {
		t.Error("undersized length accepted")
	}

	badType := append([]byte(nil), valid...)
	badType[18] = 99
	if _, _, err := DecodeMessage(badType); err == nil {
		t.Error("unknown type accepted")
	}

	kaBody := (&Notification{Code: 1}).AppendWire(nil)
	kaBody[18] = MsgKeepalive // keepalive with a body
	if _, _, err := DecodeMessage(kaBody); err == nil {
		t.Error("keepalive with body accepted")
	}
}

func TestDecodeUpdateBodyErrors(t *testing.T) {
	bad := [][]byte{
		{0},                   // too short
		{0, 5, 1, 2},          // withdrawn block overruns
		{0, 0, 0, 5, 1, 2},    // attr block overruns
		{0, 1, 33, 0, 0},      // withdrawn NLRI length 33
		{0, 0, 0, 3, 0, 9, 0}, // unknown well-known attribute
		{0, 0, 0, 0, 16, 10},  // NLRI truncated
	}
	for _, b := range bad {
		for _, in := range []*AttrsInterner{nil, new(AttrsInterner)} {
			err := DecodeUpdateBodyInto(new(Update), b, in)
			if err == nil {
				t.Errorf("DecodeUpdateBodyInto(% x) succeeded", b)
			} else if !errors.Is(err, ErrBadMessage) {
				t.Errorf("DecodeUpdateBodyInto(% x): %q does not wrap ErrBadMessage", b, err)
			}
		}
	}
	// A bad part keeps its own text and sentinel.
	err := DecodeUpdateBodyInto(new(Update), []byte{0, 0, 0, 3, 0, 9, 0}, nil)
	if !errors.Is(err, ErrBadAttrs) || err.Error() != "bgp: bad path attributes: unknown well-known attribute 9" {
		t.Errorf("bad attribute block: %q", err)
	}
}

func TestMessageStreamDecoding(t *testing.T) {
	// Multiple messages back to back must decode sequentially via n.
	var buf []byte
	buf = (&Open{Version: 4, AS: 1, HoldTime: 90, BGPID: [4]byte{1, 1, 1, 1}}).AppendWire(buf)
	buf = AppendKeepalive(buf)
	buf = (&Update{NLRI: []Prefix{MustParsePrefix("10.0.0.0/8")}, Attrs: &Attrs{ASPath: Seq(65000), NextHop: [4]byte{1, 2, 3, 4}}}).AppendWire(buf)

	var kinds []string
	for len(buf) > 0 {
		msg, n, err := DecodeMessage(buf)
		if err != nil {
			t.Fatal(err)
		}
		switch msg.(type) {
		case *Open:
			kinds = append(kinds, "open")
		case *Update:
			kinds = append(kinds, "update")
		case nil:
			kinds = append(kinds, "keepalive")
		}
		buf = buf[n:]
	}
	want := []string{"open", "keepalive", "update"}
	for i := range want {
		if i >= len(kinds) || kinds[i] != want[i] {
			t.Fatalf("stream kinds = %v, want %v", kinds, want)
		}
	}
}

func TestRouteOrigin(t *testing.T) {
	r := Route{Prefix: MustParsePrefix("10.0.0.0/8"), Attrs: &Attrs{ASPath: MustParsePath("701 8584")}}
	if o, ok := r.Origin(); !ok || o != 8584 {
		t.Fatalf("Origin = %v %v", o, ok)
	}
	r.Attrs.ASPath = MustParsePath("701 {1,2}")
	if _, ok := r.Origin(); ok {
		t.Fatal("AS_SET-terminated route reported an origin")
	}
	r.Attrs = nil
	if _, ok := r.Origin(); ok {
		t.Fatal("attr-less route reported an origin")
	}
	if r.Path() != nil {
		t.Fatal("attr-less route reported a path")
	}
}

func BenchmarkUpdateAppendWire(b *testing.B) {
	m := &Update{Attrs: sampleAttrs(), NLRI: []Prefix{MustParsePrefix("198.51.100.0/24")}}
	buf := make([]byte, 0, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = m.AppendWire(buf[:0])
	}
}

func BenchmarkDecodeUpdate(b *testing.B) {
	enc := (&Update{Attrs: sampleAttrs(), NLRI: []Prefix{MustParsePrefix("198.51.100.0/24")}}).AppendWire(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeMessage(enc); err != nil {
			b.Fatal(err)
		}
	}
}
