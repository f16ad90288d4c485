package kernel_test

import (
	"bytes"
	"reflect"
	"testing"

	"moas/internal/bgp"
	"moas/internal/binenc/binenctest"
	"moas/internal/kernel"
)

// midRun drives the shared script to its split point and returns the
// kernel's snapshot — the populated image (active and dissolved
// conflicts, spans, registry) the codec tests encode — and the events the
// kernel returned on the way: what an image of version 1-3 carried as the
// prefixes' histories, and versions 1 and 2 as the log beside them.
func midRun(t testing.TB) (*kernel.Snapshot, []kernel.Event) {
	t.Helper()
	all, splitAt := script()
	k := kernel.New(kernel.Options{})
	log := drive(k, all[:splitAt])
	return k.Snapshot(), log
}

// midRunSnapshot is midRun's snapshot alone.
func midRunSnapshot(t testing.TB) *kernel.Snapshot {
	t.Helper()
	snap, _ := midRun(t)
	return snap
}

// TestBinarySnapshotRoundTrip: the codec must reproduce the exact
// snapshot image, and the images of it the earlier versions wrote —
// versions 1-3 with every prefix's history, version 1 with its events in
// full, versions 1 and 2 with the event log they ended with — must decode
// to it too, histories and log dropped, each version's image smaller than
// the one before.
func TestBinarySnapshotRoundTrip(t *testing.T) {
	snap, log := midRun(t)
	if len(snap.Prefixes) == 0 || len(snap.Conflicts) == 0 || len(log) == 0 {
		t.Fatalf("fixture snapshot too empty to prove anything: %+v", snap)
	}

	bin := kernel.AppendSnapshotBinary(nil, snap)
	decoded, err := kernel.DecodeSnapshotBinary(bin)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, decoded) {
		t.Fatalf("binary round trip changed the snapshot:\nwant %+v\n got %+v", snap, decoded)
	}
	sizes := []int{len(bin)}
	for version := 3; version >= 1; version-- {
		old := kernel.AppendSnapshotBinaryOld(nil, snap, version, kernel.OldHistories(log, version), log)
		decoded, err := kernel.DecodeSnapshotBinary(old)
		if err != nil {
			t.Fatalf("version-%d image: %v", version, err)
		}
		if !reflect.DeepEqual(snap, decoded) {
			t.Fatalf("version-%d image decodes to a different snapshot:\nwant %+v\n got %+v", version, snap, decoded)
		}
		if sizes = append(sizes, len(old)); len(old) <= sizes[len(sizes)-2] {
			t.Fatalf("image sizes by version 4 down: %v bytes, want each smaller than the one before", sizes)
		}
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
// frame of an image — the current version's and version 2's, which ends
// with the log frame — or left after its last frame is refused: every
// frame is read to its end.
func TestBinarySnapshotRefusesPaddedFrames(t *testing.T) {
	snap, log := midRun(t)
	if len(snap.ClosedSpans) == 0 {
		t.Fatal("the image has no span to pad around")
	}
	frames := []string{"meta", "prefixes", "conflicts", "spans"}
	for _, tc := range []struct {
		version int
		img     []byte
		frames  []string
	}{
		{kernel.SnapshotVersion, kernel.AppendSnapshotBinary(nil, snap), frames},
		{2, kernel.AppendSnapshotBinaryOld(nil, snap, 2, kernel.OldHistories(log, 2), log), append(frames, "log")},
	} {
		if _, err := kernel.DecodeSnapshotBinary(tc.img); err != nil {
			t.Fatalf("version %d: unpadded image: %v", tc.version, err)
		}
		// Magic, then the one-byte version.
		for _, c := range binenctest.Padded(t, tc.img, len("MSNP")+1, tc.frames...) {
			if _, err := kernel.DecodeSnapshotBinary(c.Data); err == nil {
				t.Errorf("version %d: a junk byte in the %s frame was accepted", tc.version, c.Name)
			}
		}
	}
}

// TestBinarySnapshotRejectsDamage: version skew, truncation at every
// byte boundary, magic corruption, trailing garbage, and an event log or
// per-prefix histories in a current image must error — and never panic.
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

	// A current image that goes on with the log frame versions 1 and 2
	// ended with is refused, and so is one whose entries carry the
	// histories of versions 1-3, empty or not: no writer of this version
	// puts either there.
	_, log := midRun(t)
	// One entry alone, so that no later entry misreads the history bytes
	// that close it: the bytes past the last entry are what is refused.
	one := *snap
	one.Prefixes = snap.Prefixes[len(snap.Prefixes)-1:]
	for name, img := range map[string][]byte{
		"one entry's empty history": kernel.AppendSnapshotBinaryAt(nil, &one, kernel.SnapshotVersion, map[bgp.Prefix][]byte{}),
		"a log frame":               kernel.AppendLogFrame(bytes.Clone(bin), nil),
		"histories":                 kernel.AppendSnapshotBinaryAt(nil, snap, kernel.SnapshotVersion, kernel.OldHistories(log, 3)),
		"empty histories":           kernel.AppendSnapshotBinaryAt(nil, snap, kernel.SnapshotVersion, map[bgp.Prefix][]byte{}),
		"version-1 histories":       kernel.AppendSnapshotBinaryAt(nil, snap, kernel.SnapshotVersion, kernel.OldHistories(log, 1)),
	} {
		if _, err := kernel.DecodeSnapshotBinary(img); err == nil {
			t.Errorf("version-%d binary snapshot with %s accepted", kernel.SnapshotVersion, name)
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
// crossing the codec in the current version and in version 2, which moves
// values and must not launder them. A class past the known ones in an
// event of the log that versions 1 and 2 carried, or of a history that
// versions 2 and 3 carried, is refused by their readers, which check both
// before they drop them.
func TestRestoreRejectsBogusClass(t *testing.T) {
	refused := func(decode func() (*kernel.Snapshot, error)) bool {
		s, err := decode()
		return err != nil || kernel.New(kernel.Options{}).Restore(s) != nil
	}
	for name, damage := range map[string]func(s *kernel.Snapshot, log []kernel.Event){
		"prefix class 200":    func(s *kernel.Snapshot, _ []kernel.Event) { s.Prefixes[0].Class = 200 },
		"log event class 200": func(_ *kernel.Snapshot, log []kernel.Event) { log[0].PrevClass = 200 },
		// Compact, a class is three bits of the header: 7 is past them.
		"history event class 7": func(_ *kernel.Snapshot, log []kernel.Event) { log[len(log)-1].Class = 7 },
		"prefix repeated": func(s *kernel.Snapshot, _ []kernel.Event) {
			s.Prefixes = append(s.Prefixes, s.Prefixes[0])
		},
		"conflict without prefix": func(s *kernel.Snapshot, _ []kernel.Event) { s.Conflicts[0].Prefix = bgp.Prefix{} },
	} {
		snap, log := midRun(t)
		damage(snap, log)
		old := func(version int) func() (*kernel.Snapshot, error) {
			return func() (*kernel.Snapshot, error) {
				return kernel.DecodeSnapshotBinary(kernel.AppendSnapshotBinaryOld(nil, snap, version, kernel.OldHistories(log, version), log))
			}
		}
		images := map[string]func() (*kernel.Snapshot, error){
			"as built": func() (*kernel.Snapshot, error) { return snap, nil },
			"binary": func() (*kernel.Snapshot, error) {
				return kernel.DecodeSnapshotBinary(kernel.AppendSnapshotBinary(nil, snap))
			},
			"version-2 binary": old(2),
		}
		switch name {
		case "log event class 200": // only versions 1 and 2 carry a log
			images = map[string]func() (*kernel.Snapshot, error){"version-2 binary": old(2)}
		case "history event class 7": // version 3 carries the history without the log
			images = map[string]func() (*kernel.Snapshot, error){"version-3 binary": old(3)}
		}
		for image, decode := range images {
			if !refused(decode) {
				t.Errorf("%s: restore accepted %s", image, name)
			}
		}
	}
}
