package bgp

import (
	"testing"
)

// wireFor encodes a minimal distinct attribute block: origin IGP, a
// two-hop path ending in origin AS a.
func wireFor(t testing.TB, a ASN) []byte {
	t.Helper()
	attrs := &Attrs{
		Origin:  OriginIGP,
		ASPath:  Path{{Type: SegSequence, ASes: []ASN{64500, a}}},
		NextHop: [4]byte{10, 0, 0, 1},
	}
	return attrs.AppendWire(nil)
}

func TestInternerHitReturnsSamePointer(t *testing.T) {
	in := NewAttrsInterner(false)
	w := wireFor(t, 65001)
	a1, err := in.Intern(w)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := in.Intern(append([]byte(nil), w...)) // equal bytes, distinct backing
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatal("identical wire bytes interned to different pointers")
	}
	if in.Len() != 1 || in.Epochs() != 0 {
		t.Fatalf("Len=%d Epochs=%d, want 1/0", in.Len(), in.Epochs())
	}
	if in.Bytes() <= 0 {
		t.Fatalf("Bytes=%d, want > 0", in.Bytes())
	}
}

// TestInternerCapPlateaus is the continuous-operation claim: with a cap
// set, an endless stream of distinct attribute blocks keeps the table
// (Len <= cap, exactly) and its byte accounting bounded (epoch rebuilds)
// instead of growing monotonically, and interning stays correct across
// rebuilds.
func TestInternerCapPlateaus(t *testing.T) {
	const cap = 64
	in := NewAttrsInterner(false)
	in.SetCap(cap)

	var maxLen int
	var maxBytes int64
	var firstFull int64 // bytes when the first epoch reached the cap
	for i := 0; i < 100*cap; i++ {
		w := wireFor(t, ASN(1000+i))
		a, err := in.Intern(w)
		if err != nil {
			t.Fatal(err)
		}
		// A fresh commit must be immediately re-internable to the same
		// pointer (same epoch).
		b, err := in.Intern(w)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("block %d: re-intern within epoch returned a different pointer", i)
		}
		if in.Len() > maxLen {
			maxLen = in.Len()
		}
		if v := in.Bytes(); v > maxBytes {
			maxBytes = v
		}
		if firstFull == 0 && in.Len() == cap {
			firstFull = in.Bytes()
		}
	}
	if maxLen > cap {
		t.Fatalf("table grew to %d distinct blocks, cap %d", maxLen, cap)
	}
	if in.Epochs() < 90 {
		t.Fatalf("Epochs=%d, want >= 90 for 100x cap distinct blocks", in.Epochs())
	}
	if firstFull == 0 {
		t.Fatal("cap never reached")
	}
	if maxBytes > firstFull {
		t.Fatalf("bytes kept growing past the first full epoch: max %d > first-full %d", maxBytes, firstFull)
	}
	// After the rollovers, interning the same wire twice lands on one
	// pointer.
	w := wireFor(t, 99)
	a1, err := in.Intern(w)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := in.Intern(w)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatal("double intern after a rollover returned two pointers")
	}
}

func TestInternerNoCapGrowsAndCounts(t *testing.T) {
	in := NewAttrsInterner(false)
	for i := 0; i < 200; i++ {
		if _, err := in.Intern(wireFor(t, ASN(2000+i))); err != nil {
			t.Fatal(err)
		}
	}
	if in.Len() != 200 {
		t.Fatalf("Len=%d, want 200", in.Len())
	}
	if in.Epochs() != 0 {
		t.Fatalf("Epochs=%d, want 0 without a cap", in.Epochs())
	}
}

func TestInternerDecodeMatchesDirect(t *testing.T) {
	in := NewAttrsInterner(false)
	in.SetCap(4)
	for i := 0; i < 32; i++ {
		w := wireFor(t, ASN(3000+i))
		got, err := in.Intern(w)
		if err != nil {
			t.Fatal(err)
		}
		var want Attrs
		if err := want.DecodeAttrs(w); err != nil {
			t.Fatal(err)
		}
		if !got.Equal(&want) {
			t.Fatalf("block %d: interned attrs %+v differ from direct decode %+v", i, got, &want)
		}
	}
}

// FuzzIntern fuzzes the interner with attacker-shaped wire bytes: the
// fuzz-derived block set (plus well-formed neighbors) is interned for
// several rounds under an arbitrary cap. Every round must report the
// error a direct decode reports, successful interns must match the
// direct decode, and with no cap set each block keeps one canonical
// pointer across rounds.
func FuzzIntern(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add(wireFor(f, 65001), uint8(0))
	f.Add(wireFor(f, 65002), uint8(4))
	long := &Attrs{
		Origin:      OriginEGP,
		ASPath:      Path{{Type: SegSet, ASes: []ASN{1, 2, 3}}, {Type: SegSequence, ASes: []ASN{64500, 65010}}},
		NextHop:     [4]byte{192, 0, 2, 1},
		Communities: []uint32{0x00010002, 0xFFFF0000},
	}
	f.Add(long.AppendWire(nil), uint8(2))

	f.Fuzz(func(t *testing.T, data []byte, capN uint8) {
		in := NewAttrsInterner(false)
		in.SetCap(int(capN))
		// The block set: the raw fuzz bytes, a truncation, and two
		// well-formed blocks to guarantee valid traffic alongside.
		blocks := [][]byte{data, wireFor(t, 64496), wireFor(t, 64497)}
		if len(data) > 2 {
			blocks = append(blocks, data[:len(data)/2])
		}
		want := make([]*Attrs, len(blocks)) // nil: the direct decode fails
		for i, w := range blocks {
			if a := new(Attrs); a.DecodeAttrs(w) == nil {
				want[i] = a
			}
		}
		first := make([]*Attrs, len(blocks))
		for round := 0; round < 8; round++ {
			for i, w := range blocks {
				a, err := in.Intern(w)
				if (err != nil) != (want[i] == nil) {
					t.Fatalf("round %d, block %d: intern error %v, direct decode failed: %v", round, i, err, want[i] == nil)
				}
				if err != nil {
					continue
				}
				if !a.Equal(want[i]) {
					t.Fatalf("round %d, block %d: interned attrs differ from direct decode", round, i)
				}
				if first[i] == nil {
					first[i] = a
				} else if capN == 0 && a != first[i] {
					t.Fatalf("round %d, block %d: canonical pointer changed with no cap set", round, i)
				}
			}
		}
		if capN > 0 && in.Len() > int(capN) {
			t.Fatalf("Len = %d over cap %d", in.Len(), capN)
		}
	})
}

func BenchmarkInternHit(b *testing.B) {
	in := NewAttrsInterner(false)
	w := wireFor(b, 65001)
	if _, err := in.Intern(w); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.Intern(w); err != nil {
			b.Fatal(err)
		}
	}
}
