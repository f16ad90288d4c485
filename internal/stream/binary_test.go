package stream

import (
	"bytes"
	"reflect"
	"testing"

	"moas/internal/bgp"
	"moas/internal/binenc/binenctest"
)

// tinyCheckpoint builds a small, fully deterministic engine checkpoint
// by scripting updates directly instead of replaying an archive: three
// peers, three prefixes, a conflict that starts, churns origin and
// class, and one that dissolves, across three closed days. Checkpoint
// output is sorted everywhere, so the bytes are stable run to run —
// which is what the golden fixtures, fuzz seed corpus, and the
// byte-by-byte damage scan need (the real archive checkpoint is
// megabytes; scanning it per byte would be quadratic).
func tinyCheckpoint(t testing.TB) *Checkpoint {
	t.Helper()
	e := New(Config{Shards: 2})
	peer := func(last byte, as bgp.ASN) PeerKey {
		var k PeerKey
		k.IP[15] = last
		k.AS = as
		return k
	}
	p1, p2 := peer(1, 701), peer(2, 3356)
	p3 := peer(3, 1239)
	pa := bgp.MustParsePrefix("10.0.0.0/8")
	pb := bgp.MustParsePrefix("192.0.2.0/24")
	pc := bgp.MustParsePrefix("2001:db8::/32")
	ann := func(day int, pk PeerKey, p bgp.Prefix, path ...bgp.ASN) {
		e.ApplyUpdate(day, pk, &bgp.Update{NLRI: []bgp.Prefix{p}, Attrs: &bgp.Attrs{ASPath: bgp.Seq(path...)}})
	}
	ann(0, p1, pa, 701, 9)
	ann(0, p2, pa, 3356, 7) // pa: MOAS 7 vs 9
	ann(0, p1, pb, 701, 42)
	ann(0, p3, pc, 1239, 64500)
	e.CloseDay(0)
	ann(1, p3, pa, 1239, 2914, 11) // pa origin set grows
	ann(1, p2, pb, 3356, 43)       // pb: MOAS 42 vs 43
	e.CloseDay(1)
	e.ApplyUpdate(2, p2, &bgp.Update{Withdrawn: []bgp.Prefix{pb}}) // pb dissolves
	e.CloseDay(2)
	e.Close()
	return e.Checkpoint()
}

// TestBinaryCheckpointRoundTrip: the codec must reproduce the exact
// checkpoint image, and every frozen fixture of an earlier form — each an
// image of the scripted engine — must still decode to exactly that
// engine's image.
func TestBinaryCheckpointRoundTrip(t *testing.T) {
	sc, _, _ := fixtures(t)
	ck, _, _ := checkpointAtDay(t, Config{Shards: 2}, len(sc.ObservedDays)/2)
	if len(ck.Routes) == 0 || len(ck.Kernel.Prefixes) == 0 {
		t.Fatalf("fixture checkpoint too empty to prove anything")
	}

	bin, err := AppendCheckpointBinary(nil, ck)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeCheckpointBinary(bin)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ck, decoded) {
		t.Fatal("the round trip changed the checkpoint")
	}

	want := tinyCheckpoint(t)
	for _, path := range []string{frozenBinaryV1, frozenBinaryV2, frozenBinarySnap2, frozenBinarySnap3} {
		got, err := DecodeCheckpointBinary(frozen(t, path))
		if err != nil {
			t.Fatalf("decode of %s: %v", path, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s decodes to a different image:\nwant %+v\n got %+v", path, want, got)
		}
	}
}

// TestBinaryCheckpointResumeMatchesUninterrupted: a mid-archive
// checkpoint that crosses the binary codec, restored into a different
// shard count and fed the rest of the archive, ends in exactly the state
// of an uninterrupted replay. The cut is tried a third and half way
// through, into a layout with fewer and with more shards.
func TestBinaryCheckpointResumeMatchesUninterrupted(t *testing.T) {
	sc, _, _ := fixtures(t)
	cal := NewCalendar(sc.ObservedDays, sc.DayStamp)
	thaw := func(ck *Checkpoint) *Checkpoint {
		bin, err := AppendCheckpointBinary(nil, ck)
		if err != nil {
			t.Fatal(err)
		}
		thawed, err := DecodeCheckpointBinary(bin)
		if err != nil {
			t.Fatal(err)
		}
		return thawed
	}
	resumeMatchesUninterrupted(t, len(cal.Days)/3, 4, 2, thaw)
	resumeMatchesUninterrupted(t, len(cal.Days)/2, 3, 5, thaw)
}

// TestBinaryCheckpointRefusesPaddedFrames: one junk byte wrapped into
// any frame of either container — the kernel frame's snapshot included —
// or left after its last frame is refused: every frame is read to its
// end.
func TestBinaryCheckpointRefusesPaddedFrames(t *testing.T) {
	v2, err := AppendCheckpointBinary(nil, tinyCheckpoint(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		img    []byte
		off    int // magic, then one-byte container and struct versions
		frames []string
	}{
		{"v2", v2, len(checkpointMagic) + 2, []string{"cursor", "kernel", "attrs", "routes"}},
		{"v1", frozen(t, frozenBinaryV1), len(checkpointMagic) + 1, []string{"cursor", "kernel", "routes"}},
	} {
		if _, err := DecodeCheckpointBinary(tc.img); err != nil {
			t.Fatalf("%s: unpadded image: %v", tc.name, err)
		}
		for _, c := range binenctest.Padded(t, tc.img, tc.off, tc.frames...) {
			if _, err := DecodeCheckpointBinary(c.Data); err == nil {
				t.Errorf("%s: a junk byte in the %s frame was accepted", tc.name, c.Name)
			}
		}
	}
}

// TestBinaryCheckpointRejectsDamage: truncation at every byte boundary,
// magic corruption, trailing garbage and version skew must error — never
// panic — in both binary containers, and in the v2 container with a
// kernel section of snapshot version 1, 2 or 3. Those four are frozen
// fixtures; the v1 container's version slot is the byte after the magic,
// the v2 container's the byte after that.
func TestBinaryCheckpointRejectsDamage(t *testing.T) {
	ck := tinyCheckpoint(t)
	v2, err := AppendCheckpointBinary(nil, ck)
	if err != nil {
		t.Fatal(err)
	}
	future := *ck
	future.Version = 99
	futureV2, err := AppendCheckpointBinary(nil, &future)
	if err != nil {
		t.Fatal(err)
	}
	v1 := frozen(t, frozenBinaryV1)
	futureV1 := bytes.Clone(v1)
	futureV1[len(checkpointMagic)] = 99
	snap1 := frozen(t, frozenBinaryV2)
	futureSnap1 := bytes.Clone(snap1)
	futureSnap1[len(checkpointMagic)+1] = 99
	snap2 := frozen(t, frozenBinarySnap2)
	futureSnap2 := bytes.Clone(snap2)
	futureSnap2[len(checkpointMagic)+1] = 99
	snap3 := frozen(t, frozenBinarySnap3)
	futureSnap3 := bytes.Clone(snap3)
	futureSnap3[len(checkpointMagic)+1] = 99

	for _, tc := range []struct {
		name        string
		bin, future []byte
	}{{"v2", v2, futureV2}, {"v1", v1, futureV1}, {"v2-snap1", snap1, futureSnap1}, {"v2-snap2", snap2, futureSnap2}, {"v2-snap3", snap3, futureSnap3}} {
		t.Run(tc.name, func(t *testing.T) {
			bin := tc.bin
			if decoded, err := DecodeCheckpointBinary(bin); err != nil || !reflect.DeepEqual(ck, decoded) {
				t.Fatalf("undamaged %s checkpoint decodes with error %v or to a different image", tc.name, err)
			}
			if _, err := DecodeCheckpointBinary(append(bytes.Clone(bin), 0x01)); err == nil {
				t.Fatal("trailing garbage accepted")
			}
			for cut := 0; cut < len(bin); cut++ {
				if _, err := DecodeCheckpointBinary(bin[:cut]); err == nil {
					t.Fatalf("truncation at byte %d accepted", cut)
				}
			}
			// A flipped bit anywhere must error or decode — never panic.
			for i := range bin {
				bad := bytes.Clone(bin)
				bad[i] ^= 0x10
				_, _ = DecodeCheckpointBinary(bad)
			}
			bad := bytes.Clone(bin)
			bad[0] = 'J'
			if _, err := DecodeCheckpointBinary(bad); err == nil {
				t.Fatal("corrupt magic accepted")
			}
			if _, err := DecodeCheckpointBinary(tc.future); err == nil {
				t.Fatal("version-99 binary checkpoint accepted")
			}
		})
	}
}
