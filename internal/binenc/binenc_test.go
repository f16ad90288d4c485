package binenc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"moas/internal/bgp"
)

// TestReaderRejectsBadInput is the bounds-safety table every binary codec
// (MSNP, MCKP, MSCK, MEPL, MTRU) leans on: each malformed input must
// latch the right sentinel instead of panicking, over-reading or sizing
// an allocation from an unchecked count.
func TestReaderRejectsBadInput(t *testing.T) {
	overlong := bytes.Repeat([]byte{0x80}, 10) // 11-byte uvarint: overflows 64 bits
	overlong = append(overlong, 0x01)
	huge := binary.AppendUvarint(nil, 1<<50)

	cases := []struct {
		name string
		in   []byte
		read func(r *Reader)
		want error
	}{
		{"uvarint/empty", nil, func(r *Reader) { r.Uvarint() }, ErrTruncated},
		{"uvarint/continuation bit then end", []byte{0x80, 0x80}, func(r *Reader) { r.Uvarint() }, ErrTruncated},
		{"uvarint/over-long", overlong, func(r *Reader) { r.Uvarint() }, ErrCorrupt},
		{"varint/empty", nil, func(r *Reader) { r.Varint() }, ErrTruncated},
		{"varint/over-long", overlong, func(r *Reader) { r.Int() }, ErrCorrupt},
		{"byte/empty", nil, func(r *Reader) { r.Byte() }, ErrTruncated},
		{"bytes/past the end", []byte{1, 2}, func(r *Reader) { r.Bytes(3) }, ErrTruncated},
		{"bytes/negative", []byte{1, 2}, func(r *Reader) { r.Bytes(-1) }, ErrTruncated},
		{"count/larger than the remaining bytes", append(huge, 1, 2, 3), func(r *Reader) { r.Count(1) }, ErrCorrupt},
		{"count/fits in bytes but not in elements", []byte{3, 0, 0, 0, 0}, func(r *Reader) { r.Count(2) }, ErrCorrupt},
		{"count/truncated", []byte{0x80}, func(r *Reader) { r.Count(1) }, ErrTruncated},
		{"frame/length past the end", []byte{5, 1, 2}, func(r *Reader) { r.Frame() }, ErrCorrupt},
		{"frame/huge length", huge, func(r *Reader) { r.Frame() }, ErrCorrupt},
		{"prefix/unknown family", []byte{9, 8, 10}, func(r *Reader) { r.Prefix() }, ErrCorrupt},
		{"prefix/ipv4 longer than 32", []byte{byte(bgp.FamilyIPv4), 33, 1, 2, 3, 4, 5}, func(r *Reader) { r.Prefix() }, ErrCorrupt},
		{"prefix/ipv6 longer than 128", append([]byte{byte(bgp.FamilyIPv6), 129}, make([]byte, 17)...), func(r *Reader) { r.Prefix() }, ErrCorrupt},
		{"prefix/address bytes missing", []byte{byte(bgp.FamilyIPv4), 24, 10, 0}, func(r *Reader) { r.Prefix() }, ErrTruncated},
		{"prefix/no length byte", []byte{byte(bgp.FamilyIPv4)}, func(r *Reader) { r.Prefix() }, ErrTruncated},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReader(tc.in)
			tc.read(r)
			if !errors.Is(r.Err(), tc.want) {
				t.Fatalf("Err() = %v, want %v", r.Err(), tc.want)
			}
			// The error latches: later reads yield zero values and the
			// first cause survives.
			first := r.Err()
			if v, b, bs := r.Uvarint(), r.Byte(), r.Bytes(1); v != 0 || b != 0 || bs != nil {
				t.Fatalf("reads after an error returned %d, %d, %v", v, b, bs)
			}
			if r.Err() != first {
				t.Fatalf("latched error changed from %v to %v", first, r.Err())
			}
		})
	}
}

// TestCountGuardsAllocation: a count is accepted exactly when the
// remaining bytes could carry that many elements of the stated minimum
// size, so a decoder may size a slice from it.
func TestCountGuardsAllocation(t *testing.T) {
	in := append([]byte{4}, make([]byte, 8)...)
	if n := NewReader(in).Count(2); n != 4 {
		t.Fatalf("Count(2) over 8 bytes = %d, want 4", n)
	}
	if r := NewReader(in); r.Count(3) != 0 || !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("Count(3) over 8 bytes accepted 4 elements: %v", r.Err())
	}
	// A non-positive element size is treated as 1, not as a division by
	// zero or an unlimited count.
	if r := NewReader(in); r.Count(0) != 4 || r.Err() != nil {
		t.Fatalf("Count(0): %v", r.Err())
	}
	if r := NewReader([]byte{9, 0}); r.Count(0) != 0 || !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("Count(0) accepted 9 elements in 1 byte: %v", r.Err())
	}
}

// TestFrames: frames round-trip, a zero-length frame is an empty reader
// rather than an error, the parent advances past each frame, and an error
// inside a frame stays the frame's.
func TestFrames(t *testing.T) {
	var in []byte
	in = AppendFrame(in, []byte{7, 8, 9})
	in = AppendFrame(in, nil)
	in = append(in, 42)

	r := NewReader(in)
	f1 := r.Frame()
	if got := f1.Bytes(3); !bytes.Equal(got, []byte{7, 8, 9}) || f1.Len() != 0 {
		t.Fatalf("first frame payload %v, %d left", got, f1.Len())
	}
	f2 := r.Frame()
	if f2.Len() != 0 || f2.Err() != nil || r.Err() != nil {
		t.Fatalf("zero-length frame: len %d, err %v / %v", f2.Len(), f2.Err(), r.Err())
	}
	if b := r.Byte(); b != 42 || r.Len() != 0 {
		t.Fatalf("parent did not advance past its frames: next byte %d, %d left", b, r.Len())
	}
	for _, rd := range []*Reader{f1, f2, r} {
		if err := rd.End(); err != nil {
			t.Fatalf("End of a reader read to its end: %v", err)
		}
	}

	// Reading past a frame's payload fails inside the frame only.
	f2.Byte()
	if !errors.Is(f2.Err(), ErrTruncated) || r.Err() != nil {
		t.Fatalf("over-read of an empty frame: frame %v, parent %v", f2.Err(), r.Err())
	}
	if err := f2.End(); err != f2.Err() {
		t.Fatalf("End = %v, want the latched error %v", err, f2.Err())
	}

	// A frame cut from a failed parent is empty, and the parent keeps the
	// cause.
	bad := NewReader([]byte{5, 1})
	if sub := bad.Frame(); sub.Len() != 0 || sub.End() != nil || !errors.Is(bad.End(), ErrCorrupt) {
		t.Fatalf("frame past the end: sub len %d, err %v / %v", sub.Len(), sub.End(), bad.End())
	}
}

// TestEndRefusesLeftovers: End is nil only for a reader read exactly to
// its end; a byte no field consumed is ErrCorrupt naming the count, and
// a latched error wins over the leftovers.
func TestEndRefusesLeftovers(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	r.Byte()
	if err := r.End(); !errors.Is(err, ErrCorrupt) || err.Error() != "binenc: corrupt input: 2 bytes left over" {
		t.Fatalf("End with 2 bytes unread: %v", err)
	}
	r.Bytes(2)
	if err := r.End(); err != nil {
		t.Fatalf("End after the last byte: %v", err)
	}
	r = NewReader([]byte{0x80, 7})
	r.Bytes(5)
	if err := r.End(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("End after a failed read: %v, want the latched ErrTruncated", err)
	}
}

// TestInPlaceFrames: a section written between BeginFrame and EndFrame is
// byte for byte what AppendFrame makes of the same payload — empty, one
// byte, and either side of the length prefix growing to two and three
// bytes — nested frames included, with whatever preceded it untouched.
func TestInPlaceFrames(t *testing.T) {
	for _, n := range []int{0, 1, 127, 128, 16383, 16384} {
		payload := bytes.Repeat([]byte{0xAB}, n)
		want := AppendFrame([]byte("head"), AppendFrame(AppendFrame(nil, payload), []byte{1, 2}))

		got := []byte("head")
		outer := len(got)
		got = BeginFrame(got)
		inner := len(got)
		got = EndFrame(append(BeginFrame(got), payload...), inner)
		inner = len(got)
		got = EndFrame(append(BeginFrame(got), 1, 2), inner)
		got = EndFrame(got, outer)
		if !bytes.Equal(got, want) {
			t.Fatalf("payload of %d bytes: in-place frames differ from AppendFrame's", n)
		}
	}
}

// TestPrefixRoundTrip covers the compact prefix helpers at the edges of
// both families: /0 carries no address bytes, host routes carry all of
// them, and odd lengths round up to whole bytes.
func TestPrefixRoundTrip(t *testing.T) {
	cases := []struct {
		cidr string
		size int // encoded bytes: family + length + ceil(bits/8)
	}{
		{"0.0.0.0/0", 2},
		{"10.0.0.0/8", 3},
		{"10.128.0.0/9", 4},
		{"192.0.2.1/32", 6},
		{"::/0", 2},
		{"2001:db8::/32", 6},
		{"2001:db8::/33", 7},
		{"2001:db8::1/128", 18},
	}
	var all []byte
	for _, tc := range cases {
		p := bgp.MustParsePrefix(tc.cidr)
		enc := AppendPrefix(nil, p)
		if len(enc) != tc.size {
			t.Fatalf("%s encodes to %d bytes, want %d", tc.cidr, len(enc), tc.size)
		}
		r := NewReader(enc)
		if got := r.Prefix(); got != p || r.Err() != nil || r.Len() != 0 {
			t.Fatalf("%s decoded as %s (err %v, %d bytes left)", tc.cidr, got, r.Err(), r.Len())
		}
		all = append(all, enc...)
	}
	// Back to back, each decode consumes exactly its own bytes.
	r := NewReader(all)
	for _, tc := range cases {
		if got := r.Prefix(); got != bgp.MustParsePrefix(tc.cidr) {
			t.Fatalf("stream decode: got %s, want %s", got, tc.cidr)
		}
	}
	if r.Err() != nil || r.Len() != 0 {
		t.Fatalf("stream decode: err %v, %d bytes left", r.Err(), r.Len())
	}
}
