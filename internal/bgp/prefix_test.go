package bgp

import (
	"encoding/json"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestParsePrefixIPv4(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"10.0.0.0/8", "10.0.0.0/8"},
		{"192.168.1.0/24", "192.168.1.0/24"},
		{"192.168.1.7/24", "192.168.1.0/24"}, // host bits canonicalized away
		{"0.0.0.0/0", "0.0.0.0/0"},
		{"255.255.255.255/32", "255.255.255.255/32"},
		{"198.32.0.0/16", "198.32.0.0/16"},
		{"172.16.99.1/12", "172.16.0.0/12"},
	}
	for _, c := range cases {
		p, err := ParsePrefix(c.in)
		if err != nil {
			t.Fatalf("ParsePrefix(%q): %v", c.in, err)
		}
		if got := p.String(); got != c.want {
			t.Errorf("ParsePrefix(%q).String() = %q, want %q", c.in, got, c.want)
		}
		if p.Family() != FamilyIPv4 {
			t.Errorf("ParsePrefix(%q).Family() = %v, want ipv4", c.in, p.Family())
		}
	}
}

func TestParsePrefixIPv6(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"2001:db8::/32", "2001:db8:0:0:0:0:0:0/32"},
		{"::/0", "0:0:0:0:0:0:0:0/0"},
		{"2001:db8:1:2:3:4:5:6/128", "2001:db8:1:2:3:4:5:6/128"},
		{"fe80::1/10", "fe80:0:0:0:0:0:0:0/10"},
	}
	for _, c := range cases {
		p, err := ParsePrefix(c.in)
		if err != nil {
			t.Fatalf("ParsePrefix(%q): %v", c.in, err)
		}
		if got := p.String(); got != c.want {
			t.Errorf("ParsePrefix(%q).String() = %q, want %q", c.in, got, c.want)
		}
		if p.Family() != FamilyIPv6 {
			t.Errorf("ParsePrefix(%q).Family() = %v, want ipv6", c.in, p.Family())
		}
	}
}

func TestParsePrefixErrors(t *testing.T) {
	for _, in := range []string{
		"", "10.0.0.0", "10.0.0.0/33", "10.0.0/8", "10.0.0.0.0/8",
		"300.0.0.0/8", "10.0.0.0/x", "2001:db8::/129", "g::1/32",
		"1:2:3:4:5:6:7:8:9/64", "1:2:3/64",
	} {
		if _, err := ParsePrefix(in); err == nil {
			t.Errorf("ParsePrefix(%q) succeeded, want error", in)
		}
	}
}

// TestParsePrefixSpelling pins the spellings net/netip decides: leading
// zeros in an octet or a length, IPv6 groups of more than four digits and
// zones are refused; a 4-in-6 prefix is the IPv6 prefix it spells.
func TestParsePrefixSpelling(t *testing.T) {
	for _, in := range []string{
		"010.0.0.0/8", "10.0.0.0/08", "2001:00db8::/32", "fe80::1%eth0/64", "::ffff:10.0.0.0/129",
	} {
		if p, err := ParsePrefix(in); !errors.Is(err, ErrBadPrefix) {
			t.Errorf("ParsePrefix(%q) = %v, %v; want ErrBadPrefix", in, p, err)
		}
	}
	for _, c := range []struct {
		in   string
		want Prefix
		text string
	}{
		{"::ffff:10.0.0.0/104", PrefixFrom16([16]byte{10: 0xff, 11: 0xff, 12: 10}, 104), "0:0:0:0:0:ffff:a00:0/104"},
		{"::ffff:10.1.2.3/104", PrefixFrom16([16]byte{10: 0xff, 11: 0xff, 12: 10}, 104), "0:0:0:0:0:ffff:a00:0/104"},
		{"2001:0db8::/32", PrefixFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8}, 32), "2001:db8:0:0:0:0:0:0/32"},
		{"10.0.0.0/0", PrefixFrom4([4]byte{}, 0), "0.0.0.0/0"},
	} {
		p, err := ParsePrefix(c.in)
		if err != nil || p != c.want || p.String() != c.text {
			t.Errorf("ParsePrefix(%q) = %v, %v; want %s", c.in, p, err, c.text)
		}
	}
}

// FuzzParsePrefix: ParsePrefix never panics, refuses with ErrBadPrefix,
// and whatever it accepts reads back from its own text as the same prefix.
func FuzzParsePrefix(f *testing.F) {
	for _, s := range []string{
		"10.0.0.0/8", "2001:db8:0:0:0:0:0:0/32", "2001:db8::/32", "::ffff:10.0.0.0/104",
		"192.168.1.7/24", "010.0.0.0/8", "fe80::1%eth0/64", "10.0.0.0/33", "2001:db8::/129",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePrefix(s)
		if err != nil {
			if !errors.Is(err, ErrBadPrefix) {
				t.Fatalf("ParsePrefix(%q): %v is not ErrBadPrefix", s, err)
			}
			return
		}
		if !p.IsValid() {
			t.Fatalf("ParsePrefix(%q) returned the zero Prefix", s)
		}
		if q, err := ParsePrefix(p.String()); err != nil || q != p {
			t.Fatalf("ParsePrefix(%q) = %v, whose text reads back as %v, %v", s, p, q, err)
		}
	})
}

// TestPrefixText: a Prefix field is a string in JSON, in the canonical
// form, in both families; the text method rejects what ParsePrefix
// rejects plus text no prefix could need, and the zero Prefix — which has
// no text form — refuses to marshal instead of writing "invalid/0".
func TestPrefixText(t *testing.T) {
	type doc struct {
		P Prefix `json:"p"`
	}
	for _, cidr := range []string{"0.0.0.0/0", "192.0.2.0/24", "10.1.2.3/32", "2001:db8:0:0:0:0:0:0/32"} {
		blob, err := json.Marshal(doc{MustParsePrefix(cidr)})
		if err != nil || string(blob) != `{"p":"`+cidr+`"}` {
			t.Fatalf("marshal %s = %s, %v", cidr, blob, err)
		}
		var back doc
		if err := json.Unmarshal(blob, &back); err != nil || back.P != MustParsePrefix(cidr) {
			t.Fatalf("unmarshal %s = %v, %v", blob, back.P, err)
		}
	}
	var d doc
	if err := json.Unmarshal([]byte(`{"p":"2001:db8::/32"}`), &d); err != nil || d.P != MustParsePrefix("2001:db8:0:0:0:0:0:0/32") {
		t.Fatalf("compressed IPv6 text: %v, %v", d.P, err)
	}
	for _, bad := range []string{"", "10.0.0.0", "10.0.0.0/33", "10.0.0.0/8 ", "1::/129", strings.Repeat("0", 80) + "/8"} {
		if err := new(Prefix).UnmarshalText([]byte(bad)); !errors.Is(err, ErrBadPrefix) {
			t.Errorf("UnmarshalText(%q) = %v, want ErrBadPrefix", bad, err)
		}
	}
	if _, err := json.Marshal(doc{}); err == nil {
		t.Error("the zero Prefix marshalled")
	}
}

func TestPrefixIsMapKey(t *testing.T) {
	m := map[Prefix]int{}
	m[MustParsePrefix("10.0.0.0/8")] = 1
	m[MustParsePrefix("10.0.0.1/8")] = 2 // same canonical prefix
	if len(m) != 1 || m[MustParsePrefix("10.0.0.0/8")] != 2 {
		t.Fatalf("canonicalization broken: %v", m)
	}
}

func TestPrefixCovers(t *testing.T) {
	cases := []struct {
		p, q string
		want bool
	}{
		{"10.0.0.0/8", "10.1.0.0/16", true},
		{"10.0.0.0/8", "10.0.0.0/8", true},
		{"10.1.0.0/16", "10.0.0.0/8", false},
		{"10.0.0.0/8", "11.0.0.0/16", false},
		{"0.0.0.0/0", "203.0.113.0/24", true},
		{"198.51.100.0/24", "198.51.100.128/25", true},
		{"198.51.100.0/25", "198.51.100.128/25", false},
	}
	for _, c := range cases {
		p, q := MustParsePrefix(c.p), MustParsePrefix(c.q)
		if got := p.Covers(q); got != c.want {
			t.Errorf("%s.Covers(%s) = %v, want %v", c.p, c.q, got, c.want)
		}
	}
}

func TestPrefixCoversCrossFamily(t *testing.T) {
	v4 := MustParsePrefix("0.0.0.0/0")
	v6 := MustParsePrefix("::/0")
	if v4.Covers(v6) || v6.Covers(v4) {
		t.Error("cross-family Covers must be false")
	}
}

func TestPrefixCompare(t *testing.T) {
	ordered := []string{
		"0.0.0.0/0", "9.255.0.0/16", "10.0.0.0/7", "10.0.0.0/8",
		"10.0.0.0/24", "10.0.1.0/24", "192.168.0.0/16",
	}
	for i := range ordered {
		for j := range ordered {
			p, q := MustParsePrefix(ordered[i]), MustParsePrefix(ordered[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got := p.Compare(q); got != want {
				t.Errorf("%s.Compare(%s) = %d, want %d", ordered[i], ordered[j], got, want)
			}
		}
	}
}

func TestPrefixFromUint32(t *testing.T) {
	p := PrefixFromUint32(0xC0A80100, 24)
	if got := p.String(); got != "192.168.1.0/24" {
		t.Fatalf("PrefixFromUint32 = %q, want 192.168.1.0/24", got)
	}
	if p.Uint32() != 0xC0A80100 {
		t.Fatalf("Uint32 round-trip = %08x", p.Uint32())
	}
}

func TestPrefixFromPanicsOnBadBits(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("PrefixFrom4 with bits=33 did not panic")
		}
	}()
	PrefixFrom4([4]byte{1, 2, 3, 4}, 33)
}

func TestNLRIRoundTripIPv4(t *testing.T) {
	for _, s := range []string{"0.0.0.0/0", "10.0.0.0/8", "198.51.100.0/24", "203.0.113.255/32", "128.0.0.0/1"} {
		p := MustParsePrefix(s)
		enc := p.AppendNLRI(nil)
		got, n, err := DecodeNLRI(enc, FamilyIPv4)
		if err != nil {
			t.Fatalf("DecodeNLRI(%s): %v", s, err)
		}
		if n != len(enc) {
			t.Errorf("DecodeNLRI(%s) consumed %d of %d bytes", s, n, len(enc))
		}
		if got != p {
			t.Errorf("NLRI round trip %s -> %s", p, got)
		}
	}
}

func TestDecodeNLRIErrors(t *testing.T) {
	if _, _, err := DecodeNLRI(nil, FamilyIPv4); err == nil {
		t.Error("empty NLRI: want error")
	}
	if _, _, err := DecodeNLRI([]byte{33, 1, 2, 3, 4, 5}, FamilyIPv4); err == nil {
		t.Error("NLRI length 33 for IPv4: want error")
	}
	if _, _, err := DecodeNLRI([]byte{24, 1, 2}, FamilyIPv4); err == nil {
		t.Error("truncated NLRI body: want error")
	}
}

// quickPrefix draws a random canonical IPv4 prefix.
func quickPrefix(r *rand.Rand) Prefix {
	return PrefixFromUint32(r.Uint32(), uint8(r.Intn(33)))
}

func TestQuickNLRIRoundTrip(t *testing.T) {
	f := func(addr uint32, bitsSeed uint8) bool {
		p := PrefixFromUint32(addr, bitsSeed%33)
		got, n, err := DecodeNLRI(p.AppendNLRI(nil), FamilyIPv4)
		return err == nil && got == p && n == 1+(int(p.Bits())+7)/8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickParseStringRoundTrip(t *testing.T) {
	f := func(addr uint32, bitsSeed uint8) bool {
		p := PrefixFromUint32(addr, bitsSeed%33)
		q, err := ParsePrefix(p.String())
		return err == nil && q == p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCompareConsistency(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		p, q := quickPrefix(r), quickPrefix(r)
		if p.Compare(q) != -q.Compare(p) {
			t.Fatalf("Compare antisymmetry violated for %s, %s", p, q)
		}
		if (p.Compare(q) == 0) != (p == q) {
			t.Fatalf("Compare==0 iff equal violated for %s, %s", p, q)
		}
	}
}

func TestQuickCoversTransitive(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		// Build a chain p ⊇ q ⊇ s by re-masking one random address.
		addr := r.Uint32()
		b1 := uint8(r.Intn(17))     // 0..16
		b2 := b1 + uint8(r.Intn(9)) // b1..b1+8
		b3 := b2 + uint8(r.Intn(9)) // b2..b2+8
		p, q, s := PrefixFromUint32(addr, b1), PrefixFromUint32(addr, b2), PrefixFromUint32(addr, b3)
		if !p.Covers(q) || !q.Covers(s) || !p.Covers(s) {
			t.Fatalf("Covers transitivity violated: %s %s %s", p, q, s)
		}
	}
}

func BenchmarkPrefixAppendNLRI(b *testing.B) {
	p := MustParsePrefix("198.51.100.0/24")
	buf := make([]byte, 0, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = p.AppendNLRI(buf[:0])
	}
}

func BenchmarkDecodeNLRI(b *testing.B) {
	enc := MustParsePrefix("198.51.100.0/24").AppendNLRI(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeNLRI(enc, FamilyIPv4); err != nil {
			b.Fatal(err)
		}
	}
}
