package bgp

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"moas/internal/ptable/ptabletest"
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
	in := new(AttrsInterner)
	w := wireFor(t, 65001)
	a1, err := in.Intern(w, false)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := in.Intern(append([]byte(nil), w...), false) // equal bytes, distinct backing
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
	in := new(AttrsInterner)
	in.SetCap(cap)

	var maxLen int
	var maxBytes int64
	var firstFull int64 // bytes when the first epoch reached the cap
	for i := 0; i < 100*cap; i++ {
		w := wireFor(t, ASN(1000+i))
		a, err := in.Intern(w, false)
		if err != nil {
			t.Fatal(err)
		}
		// A fresh commit must be immediately re-internable to the same
		// pointer (same epoch).
		b, err := in.Intern(w, false)
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
	a1, err := in.Intern(w, false)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := in.Intern(w, false)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatal("double intern after a rollover returned two pointers")
	}
}

// TestInternerNoCapGrowsAndCounts: under the default cap the table grows
// and counts every block without an epoch.
func TestInternerNoCapGrowsAndCounts(t *testing.T) {
	in := new(AttrsInterner)
	for i := 0; i < 200; i++ {
		if _, err := in.Intern(wireFor(t, ASN(2000+i)), false); err != nil {
			t.Fatal(err)
		}
	}
	if in.Len() != 200 {
		t.Fatalf("Len=%d, want 200", in.Len())
	}
	if in.Epochs() != 0 {
		t.Fatalf("Epochs=%d, want 0 under the default cap", in.Epochs())
	}
}

// TestInternerKeysByWidth: one interner holds the same wire bytes under
// both AS widths as two entries, each equal to a direct decode at its
// width, and each width's re-intern hits its own entry. The bytes are a
// 4-octet path [AS 0xFDE80200] that reads, 2-octet, as the two segments
// [AS 65000] [].
func TestInternerKeysByWidth(t *testing.T) {
	w := (&Attrs{ASPath: Seq(0xFDE80200), NextHop: [4]byte{10, 0, 0, 1}}).AppendWireEx(nil, true)
	in := new(AttrsInterner)
	var got [2]*Attrs
	for i, asn4 := range []bool{false, true} {
		a, err := in.Intern(w, asn4)
		if err != nil {
			t.Fatalf("asn4=%v: %v", asn4, err)
		}
		var want Attrs
		if err := want.DecodeAttrsEx(w, asn4); err != nil {
			t.Fatal(err)
		}
		if !a.Equal(&want) {
			t.Fatalf("asn4=%v: interned %+v, direct decode %+v", asn4, a.ASPath, want.ASPath)
		}
		got[i] = a
	}
	if got[0].Equal(got[1]) {
		t.Fatalf("both widths decoded to %v; the bytes do not tell the widths apart", got[0].ASPath)
	}
	if in.Len() != 2 {
		t.Fatalf("Len=%d, want one entry per width", in.Len())
	}
	for i, asn4 := range []bool{false, true} {
		if a, err := in.Intern(append([]byte(nil), w...), asn4); err != nil || a != got[i] {
			t.Fatalf("asn4=%v: re-intern gave %p (%v), want %p", asn4, a, err, got[i])
		}
	}
	if in.Len() != 2 {
		t.Fatalf("Len=%d after the hits, want 2", in.Len())
	}
}

// TestInternEntrySize: a table entry holds no pointer — its wire bytes
// are found by chunk, offset and length — so the entry arena is
// invisible to the garbage collector, and it stays within 16 bytes.
func TestInternEntrySize(t *testing.T) {
	if typ := reflect.TypeOf(internEntry{}); !ptabletest.PointerFree(typ) {
		t.Errorf("%s contains pointers", typ)
	}
	if n := unsafe.Sizeof(internEntry{}); n > 16 {
		t.Errorf("internEntry is %d bytes, want <= 16", n)
	}
}

// TestAttrsSize: the fields of Attrs pack without padding, and every
// interned block is one Attrs.
func TestAttrsSize(t *testing.T) {
	if n := unsafe.Sizeof(Attrs{}); n > 72 {
		t.Errorf("Attrs is %d bytes, want <= 72", n)
	}
}

// distinctWires returns n distinct attribute blocks shaped like a table
// feed's: one two-hop path each, a MED on every other block and a
// community on every third.
func distinctWires(n int) [][]byte {
	wires := make([][]byte, n)
	for i := range wires {
		a := &Attrs{
			ASPath:  Seq(64500, ASN(1000+i)),
			NextHop: [4]byte{10, 0, byte(i >> 8), byte(i)},
			MED:     uint32(i),
			HasMED:  i%2 == 0,
		}
		if i%3 == 0 {
			a.Communities = []uint32{uint32(i)}
		}
		wires[i] = a.AppendWire(nil)
	}
	return wires
}

// heapInuse returns the heap in use after two collections.
func heapInuse() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapInuse
}

// TestInternerBytesTracksHeap: Bytes, which /stats reports as
// interner_bytes, is within 20 % of the heap the interner holds after
// interning N distinct blocks.
func TestInternerBytesTracksHeap(t *testing.T) {
	const n = 1 << 16
	wires := distinctWires(n)
	before := heapInuse()
	in := new(AttrsInterner)
	for _, w := range wires {
		if _, err := in.Intern(w, false); err != nil {
			t.Fatal(err)
		}
	}
	held := float64(heapInuse()) - float64(before)
	got := float64(in.Bytes())
	t.Logf("%d blocks: Bytes %.2f MB, heap delta %.2f MB (%.0f vs %.0f bytes a block)", n, got/1e6, held/1e6, got/n, held/n)
	if got < 0.8*held || got > 1.2*held {
		t.Errorf("Bytes %.0f, heap delta %.0f: off by more than 20 %%", got, held)
	}
	runtime.KeepAlive(in)
	runtime.KeepAlive(wires) // in the heap before and after
}

// TestInternMissAllocs: interning N distinct blocks allocates only when
// an arena chunk fills or the index grows, never per block (the
// allocation guard `make allocs` runs).
func TestInternMissAllocs(t *testing.T) {
	const n = 1 << 14
	wires := distinctWires(n)
	allocs := testing.AllocsPerRun(2, func() {
		in := new(AttrsInterner)
		for _, w := range wires {
			if _, err := in.Intern(w, false); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Logf("%d distinct blocks: %.0f allocations", n, allocs)
	if allocs > n/64 {
		t.Fatalf("%.0f allocations for %d distinct blocks, want <= %d", allocs, n, n/64)
	}
}

// TestInternHitAllocs: a hit allocates nothing at either width (the
// allocation guard `make allocs` runs).
func TestInternHitAllocs(t *testing.T) {
	in := new(AttrsInterner)
	w2 := wireFor(t, 65001)
	w4 := (&Attrs{ASPath: Seq(64500, 4200000000), NextHop: [4]byte{10, 0, 0, 1}}).AppendWireEx(nil, true)
	for _, c := range []struct {
		w    []byte
		asn4 bool
	}{{w2, false}, {w4, true}} {
		if _, err := in.Intern(c.w, c.asn4); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(1000, func() {
			if _, err := in.Intern(c.w, c.asn4); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Fatalf("asn4=%v: %v allocations per hit, want 0", c.asn4, n)
		}
	}
}

func TestInternerDecodeMatchesDirect(t *testing.T) {
	in := new(AttrsInterner)
	in.SetCap(4)
	for i := 0; i < 32; i++ {
		w := wireFor(t, ASN(3000+i))
		got, err := in.Intern(w, false)
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
// fuzz-derived block set (plus well-formed neighbors) is interned under
// both AS widths for several rounds under an arbitrary cap (0: none).
// Every round must report the error a direct decode at that width
// reports, successful interns must match that decode, and with no cap
// each block keeps one canonical pointer per width across rounds.
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
		in := new(AttrsInterner)
		in.SetCap(int(capN))
		// The block set: the raw fuzz bytes, a truncation, and two
		// well-formed blocks to guarantee valid traffic alongside.
		blocks := [][]byte{data, wireFor(t, 64496), wireFor(t, 64497)}
		if len(data) > 2 {
			blocks = append(blocks, data[:len(data)/2])
		}
		widths := [2]bool{false, true}
		want := make([][2]*Attrs, len(blocks)) // nil: the direct decode fails
		for i, w := range blocks {
			for k, asn4 := range widths {
				if a := new(Attrs); a.DecodeAttrsEx(w, asn4) == nil {
					want[i][k] = a
				}
			}
		}
		first := make([][2]*Attrs, len(blocks))
		for round := 0; round < 8; round++ {
			for i, w := range blocks {
				for k, asn4 := range widths {
					a, err := in.Intern(w, asn4)
					if (err != nil) != (want[i][k] == nil) {
						t.Fatalf("round %d, block %d, asn4=%v: intern error %v, direct decode failed: %v", round, i, asn4, err, want[i][k] == nil)
					}
					if err != nil {
						continue
					}
					if !a.Equal(want[i][k]) {
						t.Fatalf("round %d, block %d, asn4=%v: interned attrs differ from direct decode", round, i, asn4)
					}
					if first[i][k] == nil {
						first[i][k] = a
					} else if capN == 0 && a != first[i][k] {
						t.Fatalf("round %d, block %d, asn4=%v: canonical pointer changed under the default cap", round, i, asn4)
					}
				}
			}
		}
		if capN > 0 && in.Len() > int(capN) {
			t.Fatalf("Len = %d over cap %d", in.Len(), capN)
		}
	})
}

func BenchmarkInternHit(b *testing.B) {
	in := new(AttrsInterner)
	w := wireFor(b, 65001)
	if _, err := in.Intern(w, false); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.Intern(w, false); err != nil {
			b.Fatal(err)
		}
	}
}
