package kernel_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"moas/internal/bgp"
	"moas/internal/binenc"
	"moas/internal/binenc/binenctest"
	"moas/internal/kernel"
)

// midRunSnapshot drives the shared script to its split point and returns
// the kernel's snapshot: the populated image (active and dissolved
// conflicts, spans, registry) the codec tests encode.
func midRunSnapshot(t testing.TB) *kernel.Snapshot {
	t.Helper()
	all, splitAt := script()
	k := kernel.New(kernel.Options{})
	drive(k, all[:splitAt])
	return k.Snapshot()
}

// TestBinarySnapshotRoundTrip: the codec must reproduce the exact
// snapshot image.
func TestBinarySnapshotRoundTrip(t *testing.T) {
	snap := midRunSnapshot(t)
	if len(snap.Prefixes) == 0 || len(snap.Conflicts) == 0 {
		t.Fatalf("fixture snapshot too empty to prove anything: %+v", snap)
	}
	decoded, err := kernel.DecodeSnapshotBinary(kernel.AppendSnapshotBinary(nil, snap))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, decoded) {
		t.Fatalf("binary round trip changed the snapshot:\nwant %+v\n got %+v", snap, decoded)
	}
}

// TestBinarySnapshotRestoreEquivalence: restoring from the binary form
// mid-run and finishing the script matches the uninterrupted kernel.
func TestBinarySnapshotRestoreEquivalence(t *testing.T) {
	all, splitAt := script()
	opts := kernel.Options{}

	uninterrupted := kernel.New(opts)
	wantLog := drive(uninterrupted, all)

	snap, err := kernel.DecodeSnapshotBinary(kernel.AppendSnapshotBinary(nil, midRunSnapshot(t)))
	if err != nil {
		t.Fatal(err)
	}
	restored := kernel.New(opts)
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	gotLog := append(drive(kernel.New(opts), all[:splitAt]), drive(restored, all[splitAt:])...)

	if w, g := uninterrupted.Snapshot(), restored.Snapshot(); !reflect.DeepEqual(w, g) {
		t.Fatalf("final snapshots differ:\nwant %+v\n got %+v", w, g)
	}
	if !reflect.DeepEqual(wantLog, gotLog) {
		t.Fatal("event logs differ after restore")
	}
	diffRegistries(t, uninterrupted.Registry(), restored.Registry())
}

// TestBinarySnapshotRefusesPaddedFrames: one junk byte wrapped into any
// frame of an image — inside the prefixes frame, where versions 1-3 put
// each entry's history, included — or left after its last frame is
// refused: every frame is read to its end.
func TestBinarySnapshotRefusesPaddedFrames(t *testing.T) {
	snap := midRunSnapshot(t)
	if len(snap.ClosedSpans) == 0 {
		t.Fatal("the image has no span to pad around")
	}
	img := kernel.AppendSnapshotBinary(nil, snap)
	if _, err := kernel.DecodeSnapshotBinary(img); err != nil {
		t.Fatalf("unpadded image: %v", err)
	}
	// Magic, then the one-byte version.
	for _, c := range binenctest.Padded(t, img, len("MSNP")+1, "meta", "prefixes", "conflicts", "spans") {
		if _, err := kernel.DecodeSnapshotBinary(c.Data); err == nil {
			t.Errorf("a junk byte in the %s frame was accepted", c.Name)
		}
	}
}

// TestBinarySnapshotRejectsDamage: truncation at every byte boundary,
// magic corruption and trailing garbage must error — and never panic.
// An image of a retired version (1-3) is refused as retired, naming the
// version and the last commit that reads it; a version no build wrote (0,
// or one past the current) is refused as unknown.
func TestBinarySnapshotRejectsDamage(t *testing.T) {
	snap := midRunSnapshot(t)
	bin := kernel.AppendSnapshotBinary(nil, snap)

	if _, err := kernel.DecodeSnapshotBinary(append(bytes.Clone(bin), 0xFF)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	for cut := 0; cut < len(bin); cut++ {
		if _, err := kernel.DecodeSnapshotBinary(bin[:cut]); err == nil {
			t.Fatalf("truncation at byte %d accepted", cut)
		}
	}

	bad := bytes.Clone(bin)
	bad[0] = 'X' // magic
	if _, err := kernel.DecodeSnapshotBinary(bad); err == nil {
		t.Fatal("corrupt magic accepted")
	}

	for version := byte(0); version <= kernel.SnapshotVersion+1; version++ {
		if version == kernel.SnapshotVersion {
			continue
		}
		img := bytes.Clone(bin)
		img[len("MSNP")] = version
		_, err := kernel.DecodeSnapshotBinary(img)
		retired := version >= 1 && version < kernel.SnapshotVersion
		switch {
		case err == nil:
			t.Errorf("version-%d image accepted", version)
		case errors.Is(err, binenc.ErrRetired) != retired:
			t.Errorf("version-%d image: %v; retired: %v, want %v", version, err, !retired, retired)
		case retired && !strings.Contains(err.Error(), fmt.Sprintf("MSNP version %d ", version)):
			t.Errorf("version-%d image: %q does not name its version", version, err)
		case retired && !strings.Contains(err.Error(), "a105d34"):
			t.Errorf("version-%d image: %q does not name the last commit that reads it", version, err)
		}
	}

	snap.Version = 99
	if _, err := kernel.DecodeSnapshotBinary(kernel.AppendSnapshotBinary(nil, snap)); err == nil {
		t.Fatal("version-99 binary snapshot accepted")
	}
}

// TestRestoreRejectsBogusClass: a snapshot carrying a class byte past the
// known classes in a prefix state must fail restore up front (deferring
// it would panic in the first CloseDay's ClassDays indexing), and so must
// the other images only outside input can produce: a prefix repeated, an
// entry with no prefix at all. Each is refused as built, and again after
// crossing the codec, which moves values and must not launder them.
func TestRestoreRejectsBogusClass(t *testing.T) {
	refused := func(decode func() (*kernel.Snapshot, error)) bool {
		s, err := decode()
		return err != nil || kernel.New(kernel.Options{}).Restore(s) != nil
	}
	for name, damage := range map[string]func(s *kernel.Snapshot){
		"prefix class 200": func(s *kernel.Snapshot) { s.Prefixes[0].Class = 200 },
		"prefix repeated": func(s *kernel.Snapshot) {
			s.Prefixes = append(s.Prefixes, s.Prefixes[0])
		},
		"conflict without prefix": func(s *kernel.Snapshot) { s.Conflicts[0].Prefix = bgp.Prefix{} },
	} {
		snap := midRunSnapshot(t)
		damage(snap)
		for image, decode := range map[string]func() (*kernel.Snapshot, error){
			"as built": func() (*kernel.Snapshot, error) { return snap, nil },
			"binary": func() (*kernel.Snapshot, error) {
				return kernel.DecodeSnapshotBinary(kernel.AppendSnapshotBinary(nil, snap))
			},
		} {
			if !refused(decode) {
				t.Errorf("%s: restore accepted %s", image, name)
			}
		}
	}
}
