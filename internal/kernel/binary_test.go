package kernel_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"moas/internal/bgp"
	"moas/internal/kernel"
)

// midRunSnapshot drives the shared script to its split point and returns
// the kernel's snapshot with the events it emitted as the log, as the
// engine's checkpoint carries them — the populated image (active and
// dissolved conflicts, history, spans, registry, log) the codec tests
// encode.
func midRunSnapshot(t testing.TB) *kernel.Snapshot {
	t.Helper()
	all, splitAt := script()
	k := kernel.New(kernel.Options{})
	log := drive(k, all[:splitAt])
	snap := k.Snapshot()
	snap.Log = log
	return snap
}

// TestBinarySnapshotRoundTrip: both codecs must reproduce the exact
// snapshot image, the binary one in fewer bytes, and a version-1 binary
// image of it, its history events in full, must decode to it too.
func TestBinarySnapshotRoundTrip(t *testing.T) {
	snap := midRunSnapshot(t)
	if len(snap.Prefixes) == 0 || len(snap.Conflicts) == 0 || len(snap.Log) == 0 {
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
	v1 := kernel.AppendSnapshotBinaryV1(nil, snap)
	fromV1, err := kernel.DecodeSnapshotBinary(v1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, fromV1) {
		t.Fatalf("version-1 image decodes to a different snapshot:\nwant %+v\n got %+v", snap, fromV1)
	}
	if len(bin) >= len(v1) {
		t.Fatalf("version 2 (%d bytes) not smaller than version 1 (%d bytes)", len(bin), len(v1))
	}

	var js bytes.Buffer
	if err := json.NewEncoder(&js).Encode(snap); err != nil {
		t.Fatal(err)
	}
	if len(bin) >= js.Len() {
		t.Fatalf("binary encoding (%d bytes) not smaller than JSON (%d bytes)", len(bin), js.Len())
	}
	fromJSON := new(kernel.Snapshot)
	if err := json.Unmarshal(js.Bytes(), fromJSON); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, fromJSON) {
		t.Fatalf("JSON round trip changed the snapshot:\nwant %+v\n got %+v", snap, fromJSON)
	}
}

// TestBinarySnapshotRestoreEquivalence: restoring from the binary form
// mid-run and finishing the script matches the uninterrupted kernel, the
// same guarantee the JSON round-trip test proves.
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
	gotLog, err := restoreAll(restored, snap)
	if err != nil {
		t.Fatal(err)
	}
	gotLog = append(gotLog, drive(restored, all[splitAt:])...)

	if w, g := uninterrupted.Snapshot(), restored.Snapshot(); !reflect.DeepEqual(w, g) {
		t.Fatalf("final snapshots differ:\nwant %+v\n got %+v", w, g)
	}
	if !reflect.DeepEqual(wantLog, gotLog) {
		t.Fatal("event logs differ after restore")
	}
	diffRegistries(t, uninterrupted.Registry(), restored.Registry())
}

// TestBinarySnapshotRejectsDamage: version skew, truncation at every
// byte boundary, magic corruption and trailing garbage must error — and
// never panic.
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

	snap.Version = 99
	if _, err := kernel.DecodeSnapshotBinary(kernel.AppendSnapshotBinary(nil, snap)); err == nil {
		t.Fatal("version-99 binary snapshot accepted")
	}
}

// TestRestoreRejectsBogusClass: a snapshot carrying a class byte past the
// known classes — in a prefix state, a history event or the retained log
// — must fail restore up front (deferring it would panic in the first
// CloseDay's ClassDays indexing), and so must the other images only
// outside input can produce: a prefix repeated, an entry with no prefix
// at all. Each is restored as built and again after crossing the binary
// codec, which moves values and must not launder them.
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
	for name, damage := range map[string]func(s *kernel.Snapshot){
		"prefix class 200":    func(s *kernel.Snapshot) { s.Prefixes[0].Class = 200 },
		"log event class 200": func(s *kernel.Snapshot) { s.Log[0].PrevClass = 200 },
		"history event class 7": func(s *kernel.Snapshot) {
			// A compact header has three bits per class; the first
			// event's header follows the one-byte count.
			ps := withHistory(s)
			ps.History = bytes.Clone(ps.History)
			ps.History[1] |= 7 << 2
		},
		"prefix repeated":         func(s *kernel.Snapshot) { s.Prefixes = append(s.Prefixes, s.Prefixes[0]) },
		"conflict without prefix": func(s *kernel.Snapshot) { s.Conflicts[0].Prefix = bgp.Prefix{} },
	} {
		snap := midRunSnapshot(t)
		damage(snap)
		if _, err := restoreAll(kernel.New(kernel.Options{}), snap); err == nil {
			t.Errorf("restore accepted %s", name)
		}
		decoded, err := kernel.DecodeSnapshotBinary(kernel.AppendSnapshotBinary(nil, snap))
		if err != nil {
			continue // the zero prefix has no binary form: rejected a step earlier
		}
		if _, err := restoreAll(kernel.New(kernel.Options{}), decoded); err == nil {
			t.Errorf("restore accepted %s after a binary round trip", name)
		}
	}
}
