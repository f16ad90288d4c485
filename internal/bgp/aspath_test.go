package bgp

import (
	"math/rand"
	"testing"
)

func TestPathOrigin(t *testing.T) {
	cases := []struct {
		path   string
		origin ASN
		ok     bool
	}{
		{"701 1239 8584", 8584, true},
		{"8584", 8584, true},
		{"", 0, false},
		{"701 1239 {7018,3356}", 0, false}, // ends in AS_SET: excluded
		{"701 {7018} 1239", 1239, true},    // set mid-path is fine
	}
	for _, c := range cases {
		p := MustParsePath(c.path)
		got, ok := p.Origin()
		if ok != c.ok || got != c.origin {
			t.Errorf("Origin(%q) = (%v,%v), want (%v,%v)", c.path, got, ok, c.origin, c.ok)
		}
	}
}

func TestPathEndsInSet(t *testing.T) {
	if !MustParsePath("701 {7018,3356}").EndsInSet() {
		t.Error("path ending in set: EndsInSet() = false")
	}
	if MustParsePath("701 1239").EndsInSet() {
		t.Error("pure sequence: EndsInSet() = true")
	}
	if (Path{}).EndsInSet() {
		t.Error("empty path: EndsInSet() = true")
	}
}

func TestPathTransitASes(t *testing.T) {
	p := MustParsePath("701 1239 8584")
	tr := p.TransitASes()
	if len(tr) != 2 || tr[0] != 701 || tr[1] != 1239 {
		t.Errorf("TransitASes = %v, want [701 1239]", tr)
	}
	// With a mid-path set the set members are transit ASes too.
	p = MustParsePath("701 {7018,3356} 1239")
	tr = p.TransitASes()
	if len(tr) != 3 {
		t.Errorf("TransitASes = %v, want 3 entries", tr)
	}
}

func TestPathContains(t *testing.T) {
	p := MustParsePath("701 {7018,3356} 1239")
	for _, a := range []ASN{701, 7018, 3356, 1239} {
		if !p.Contains(a) {
			t.Errorf("Contains(%v) = false", a)
		}
	}
	if p.Contains(9999) {
		t.Error("Contains(9999) = true")
	}
}

func TestPathContainsLoop(t *testing.T) {
	if MustParsePath("701 1239 701 8584").ContainsLoop() != true {
		t.Error("looped path not detected")
	}
	if MustParsePath("701 701 701 8584").ContainsLoop() {
		t.Error("prepend-only repetition flagged as loop")
	}
	if MustParsePath("701 1239 8584").ContainsLoop() {
		t.Error("clean path flagged as loop")
	}
}

func TestPathStringParseRoundTrip(t *testing.T) {
	for _, s := range []string{
		"701 1239 8584",
		"701 {7018,3356}",
		"3561 15412",
		"701 {7018} 1239 {1,2,3}",
		"",
	} {
		p := MustParsePath(s)
		q, err := ParsePath(p.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", p.String(), err)
		}
		if !p.Equal(q) {
			t.Errorf("round trip %q -> %q", s, q.String())
		}
	}
}

func TestParsePathErrors(t *testing.T) {
	for _, s := range []string{"foo", "701 bar", "{123", "70000000000000000000"} {
		if _, err := ParsePath(s); err == nil {
			t.Errorf("ParsePath(%q) succeeded, want error", s)
		}
	}
}

func TestPathWireRoundTrip(t *testing.T) {
	for _, s := range []string{
		"701 1239 8584",
		"701 {7018,3356}",
		"",
		"65535 0 1",
	} {
		p := MustParsePath(s)
		enc := p.AppendWire(nil)
		q, err := DecodePathWire(enc)
		if err != nil {
			t.Fatalf("DecodePathWire(%q): %v", s, err)
		}
		if !p.Equal(q) {
			t.Errorf("wire round trip %q -> %q", s, q.String())
		}
	}
	// Empty segments survive too, and with them the answer of Origin.
	for _, p := range []Path{
		{{Type: SegSequence, ASes: []ASN{701, 1239}}, {Type: SegSequence}},
		{{Type: SegSequence}, {Type: SegSet}},
	} {
		q, err := DecodePathWire(p.AppendWire(nil))
		if err != nil {
			t.Fatal(err)
		}
		if !p.Equal(q) {
			t.Errorf("wire round trip of %d segments gave %d", len(p), len(q))
		}
		if _, ok := q.Origin(); ok {
			t.Errorf("path ending in an empty segment has an origin after a round trip")
		}
	}
}

func TestPathWireLongSegmentSplit(t *testing.T) {
	// 300 ASes must be split into 255 + 45 on the wire and decode back.
	ases := make([]ASN, 300)
	for i := range ases {
		ases[i] = ASN(i + 1)
	}
	p := Path{{Type: SegSequence, ASes: ases}}
	enc := p.AppendWire(nil)
	q, err := DecodePathWire(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(q) != 2 || len(q[0].ASes) != 255 || len(q[1].ASes) != 45 {
		t.Fatalf("split segments = %d/%v", len(q), q)
	}
	if n := len(q[0].ASes) + len(q[1].ASes); n != 300 {
		t.Fatalf("%d ASes after split, want 300", n)
	}
	if origin, ok := q.Origin(); !ok || origin != 300 {
		t.Fatalf("Origin after split = %v %v", origin, ok)
	}
}

func TestDecodePathWireErrors(t *testing.T) {
	cases := [][]byte{
		{2},                // truncated header
		{9, 1, 0, 1},       // bad segment type
		{2, 3, 0, 1, 0, 2}, // claims 3 ASNs, has 2
	}
	for _, b := range cases {
		if _, err := DecodePathWire(b); err == nil {
			t.Errorf("DecodePathWire(% x) succeeded, want error", b)
		}
	}
}

func TestPathCloneIndependence(t *testing.T) {
	p := MustParsePath("701 1239 8584")
	q := p.Clone()
	q[0].ASes[0] = 1
	if p[0].ASes[0] != 701 {
		t.Error("Clone shares AS storage")
	}
	var nilPath Path
	if nilPath.Clone() != nil {
		t.Error("Clone(nil) != nil")
	}
}

// randPath draws a random path: 1-6 sequence hops, occasionally a trailing set.
func randPath(r *rand.Rand) Path {
	n := 1 + r.Intn(6)
	ases := make([]ASN, n)
	for i := range ases {
		ases[i] = ASN(1 + r.Intn(65534))
	}
	p := Path{{Type: SegSequence, ASes: ases}}
	if r.Intn(10) == 0 {
		set := make([]ASN, 1+r.Intn(3))
		for i := range set {
			set[i] = ASN(1 + r.Intn(65534))
		}
		p = append(p, Segment{Type: SegSet, ASes: set})
	}
	return p
}

func TestQuickPathWireRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 3000; i++ {
		p := randPath(r)
		q, err := DecodePathWire(p.AppendWire(nil))
		if err != nil {
			t.Fatalf("decode %q: %v", p, err)
		}
		if !p.Equal(q) {
			t.Fatalf("round trip %q -> %q", p, q)
		}
	}
}

func TestQuickOriginNeverInTransit(t *testing.T) {
	// For pure-sequence loop-free paths the origin must not appear among
	// TransitASes — the invariant the OrigTranAS classifier relies on.
	r := rand.New(rand.NewSource(17))
	for i := 0; i < 3000; i++ {
		p := randPath(r)
		if p.ContainsLoop() || p.EndsInSet() {
			continue
		}
		origin, ok := p.Origin()
		if !ok {
			continue
		}
		for _, a := range p.TransitASes() {
			if a == origin && !p.Contains(origin) {
				t.Fatalf("origin %v in transit of loop-free %q", origin, p)
			}
		}
	}
}

func TestASNString(t *testing.T) {
	if got := ASN(8584).String(); got != "AS8584" {
		t.Errorf("ASN.String = %q", got)
	}
}

func BenchmarkPathAppendWire(b *testing.B) {
	p := MustParsePath("701 1239 7018 3356 8584")
	buf := make([]byte, 0, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = p.AppendWire(buf[:0])
	}
}

func BenchmarkDecodePathWire(b *testing.B) {
	enc := MustParsePath("701 1239 7018 3356 8584").AppendWire(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodePathWire(enc); err != nil {
			b.Fatal(err)
		}
	}
}
