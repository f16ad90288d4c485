package kernel_test

import (
	"bytes"
	"reflect"
	"testing"

	"moas/internal/bgp"
	"moas/internal/kernel"
)

// midRun drives the shared script to its split point and returns the
// kernel's snapshot — the populated image (active and dissolved
// conflicts, history, spans, registry) the codec tests encode — and the
// events the kernel returned on the way, the log a version-1 or 2 image
// carried beside it.
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

// asVersion2 is s as a version-2 image holds it: the current sections
// under the older number (AppendSnapshotBinaryOld adds the log).
func asVersion2(s *kernel.Snapshot) *kernel.Snapshot {
	v2 := *s
	v2.Version = 2
	return &v2
}

// TestBinarySnapshotRoundTrip: the codec must reproduce the exact
// snapshot image, and the images of it the earlier versions wrote —
// version 1 with its history events in full, versions 1 and 2 with the
// event log they ended with — must decode to it too, the log dropped,
// each version's image smaller than the one before.
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
	v1 := kernel.AppendSnapshotBinaryOld(nil, kernel.SnapshotV1(snap), log)
	v2 := kernel.AppendSnapshotBinaryOld(nil, asVersion2(snap), log)
	for name, old := range map[string][]byte{"version-1": v1, "version-2": v2} {
		decoded, err := kernel.DecodeSnapshotBinary(old)
		if err != nil {
			t.Fatalf("%s image: %v", name, err)
		}
		if !reflect.DeepEqual(snap, decoded) {
			t.Fatalf("%s image decodes to a different snapshot:\nwant %+v\n got %+v", name, snap, decoded)
		}
	}
	if len(bin) >= len(v2) || len(v2) >= len(v1) {
		t.Fatalf("image sizes by version 3, 2, 1: %d, %d, %d bytes, want each smaller than the one before", len(bin), len(v2), len(v1))
	}
}

// TestBinarySnapshotRestoreEquivalence: restoring from the binary form
// mid-run and finishing the script matches the uninterrupted kernel at
// the default history cap (TestSnapshotRoundTrip holds a capped one).
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

// TestBinarySnapshotRejectsDamage: version skew, truncation at every
// byte boundary, magic corruption, trailing garbage and an event log in a
// current image must error — and never panic.
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
	// ended with is refused: no writer of this version puts one there.
	if _, err := kernel.DecodeSnapshotBinary(kernel.AppendSnapshotBinaryOld(nil, snap, nil)); err == nil {
		t.Fatal("version-3 binary snapshot with a log frame accepted")
	}

	snap.Version = 99
	if _, err := kernel.DecodeSnapshotBinary(kernel.AppendSnapshotBinary(nil, snap)); err == nil {
		t.Fatal("version-99 binary snapshot accepted")
	}
}

// TestRestoreRejectsBogusClass: a snapshot carrying a class byte past the
// known classes — in a prefix state or a history event — must fail
// restore up front (deferring it would panic in the first CloseDay's
// ClassDays indexing), and so must the other images only outside input
// can produce: a prefix repeated, an entry with no prefix at all. Each is
// refused as built, and again after crossing the codec in the current
// version and in version 2, which moves values and must not launder
// them. A class past the known ones in the event log that versions 1 and
// 2 carried is refused by their readers, which check the log before they
// drop it.
func TestRestoreRejectsBogusClass(t *testing.T) {
	withHistory := func(s *kernel.Snapshot) *kernel.PrefixSnap {
		for i := range s.Prefixes {
			if len(s.Prefixes[i].History) > 0 {
				return &s.Prefixes[i]
			}
		}
		t.Fatal("fixture snapshot has no history")
		return nil
	}
	refused := func(decode func() (*kernel.Snapshot, error)) bool {
		s, err := decode()
		return err != nil || kernel.New(kernel.Options{}).Restore(s) != nil
	}
	for name, damage := range map[string]func(s *kernel.Snapshot, log []kernel.Event){
		"prefix class 200":    func(s *kernel.Snapshot, _ []kernel.Event) { s.Prefixes[0].Class = 200 },
		"log event class 200": func(_ *kernel.Snapshot, log []kernel.Event) { log[0].PrevClass = 200 },
		"history event class 7": func(s *kernel.Snapshot, _ []kernel.Event) {
			// A compact header has three bits per class; the first
			// event's header follows the one-byte count.
			ps := withHistory(s)
			ps.History = bytes.Clone(ps.History)
			ps.History[1] |= 7 << 2
		},
		"prefix repeated": func(s *kernel.Snapshot, _ []kernel.Event) {
			s.Prefixes = append(s.Prefixes, s.Prefixes[0])
		},
		"conflict without prefix": func(s *kernel.Snapshot, _ []kernel.Event) { s.Conflicts[0].Prefix = bgp.Prefix{} },
	} {
		snap, log := midRun(t)
		damage(snap, log)
		images := map[string]func() (*kernel.Snapshot, error){
			"version-2 binary": func() (*kernel.Snapshot, error) {
				return kernel.DecodeSnapshotBinary(kernel.AppendSnapshotBinaryOld(nil, asVersion2(snap), log))
			},
		}
		if name != "log event class 200" { // the current version carries no log to damage
			images["as built"] = func() (*kernel.Snapshot, error) { return snap, nil }
			images["binary"] = func() (*kernel.Snapshot, error) {
				return kernel.DecodeSnapshotBinary(kernel.AppendSnapshotBinary(nil, snap))
			}
		}
		for image, decode := range images {
			if !refused(decode) {
				t.Errorf("%s: restore accepted %s", image, name)
			}
		}
	}
}
