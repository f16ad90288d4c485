package stream

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"moas/internal/bgp"
	"moas/internal/binenc"
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
// checkpoint image.
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
// any frame — the kernel frame's snapshot included — or left after the
// last frame is refused: every frame is read to its end.
func TestBinaryCheckpointRefusesPaddedFrames(t *testing.T) {
	img, err := AppendCheckpointBinary(nil, tinyCheckpoint(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeCheckpointBinary(img); err != nil {
		t.Fatalf("unpadded image: %v", err)
	}
	// Magic, then the one-byte container and struct versions.
	for _, c := range binenctest.Padded(t, img, len(checkpointMagic)+2, "cursor", "kernel", "attrs", "routes") {
		if _, err := DecodeCheckpointBinary(c.Data); err == nil {
			t.Errorf("a junk byte in the %s frame was accepted", c.Name)
		}
	}
}

// TestBinaryCheckpointRejectsDamage: truncation at every byte boundary,
// magic corruption, trailing garbage and version skew must error — never
// panic. A container slot of 0 or 3 is damage; the retired forms
// (retiredForms: container 1, kernel snapshot 1-3) are refused as
// retired, and their truncations and flipped bits error or decode without
// a panic too.
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
	damaged := func(t *testing.T, bin []byte) {
		t.Helper()
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
	}

	t.Run("v2", func(t *testing.T) {
		if decoded, err := DecodeCheckpointBinary(v2); err != nil || !reflect.DeepEqual(ck, decoded) {
			t.Fatalf("undamaged checkpoint decodes with error %v or to a different image", err)
		}
		damaged(t, v2)
		if _, err := DecodeCheckpointBinary(futureV2); err == nil {
			t.Fatal("version-99 binary checkpoint accepted")
		}
		for _, slot := range []byte{0, checkpointContainer + 1} {
			bad := bytes.Clone(v2)
			bad[len(checkpointMagic)] = slot
			if _, err := DecodeCheckpointBinary(bad); !errors.Is(err, binenc.ErrCorrupt) {
				t.Errorf("container slot %d: %v, want %v", slot, err, binenc.ErrCorrupt)
			}
		}
	})
	for name, form := range retiredForms(t, v2) {
		t.Run(name, func(t *testing.T) {
			if _, err := DecodeCheckpointBinary(form); !errors.Is(err, binenc.ErrRetired) {
				t.Fatalf("retired form decodes with error %v, want %v", err, binenc.ErrRetired)
			}
			damaged(t, form)
		})
	}
}
