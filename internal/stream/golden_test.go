package stream

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"moas/internal/bgp"
)

// The golden fixtures pin the checkpoint format: a scripted engine
// checkpoint committed in every container and kernel snapshot version
// plus the state summary it must restore to. Future codec changes that can't read these bytes — or
// read them into different state — fail here instead of silently
// orphaning every archived checkpoint. Regenerate the written forms
// (only after a deliberate, version-bumped format change) with
// MOAS_GEN_GOLDEN=1, under new names; the files they replace stay
// committed as frozen fixtures of the forms that came before, which no
// writer produces any more and every reader test decodes:
//
//	checkpoint_v1.mckpt        container v1, kernel snapshot v1
//	checkpoint_v2.mckpt        container v2, kernel snapshot v1
//	checkpoint_v2_snap2.mckpt  container v2, kernel snapshot v2
//	checkpoint_v2_snap3.mckpt  container v2, kernel snapshot v3
//
// Kernel snapshot v2 made the per-prefix histories compact, v3 dropped
// the event log the earlier ones carry, and the written form carries
// kernel snapshot v4 (checkpoint_v2_snap4.mckpt), which drops the
// histories too — the events a test engine retained then, which the
// reader checks and drops. The expectation, a JSON document, is a
// summary of the restored state, not a checkpoint.
const (
	goldenBinaryV2 = "testdata/checkpoint_v2_snap4.mckpt"
	goldenExpect   = "testdata/checkpoint_v1.expect.json"

	frozenBinaryV1    = "testdata/checkpoint_v1.mckpt"
	frozenBinaryV2    = "testdata/checkpoint_v2.mckpt"
	frozenBinarySnap2 = "testdata/checkpoint_v2_snap2.mckpt"
	frozenBinarySnap3 = "testdata/checkpoint_v2_snap3.mckpt"
)

// goldenSummary is the restored-state image the fixtures are compared
// against: the replay cursor plus the full conflict registry.
type goldenSummary struct {
	LastClosedDay   int              `json:"last_closed_day"`
	Messages        uint64           `json:"messages"`
	Ops             uint64           `json:"ops"`
	Records         uint64           `json:"records"`
	Events          int              `json:"events"`
	ActiveConflicts int              `json:"active_conflicts"`
	Conflicts       []goldenConflict `json:"conflicts"`
}

type goldenConflict struct {
	Prefix       string    `json:"prefix"`
	FirstDay     int       `json:"first_day"`
	LastDay      int       `json:"last_day"`
	DaysObserved int       `json:"days_observed"`
	OriginsEver  []bgp.ASN `json:"origins_ever"`
	ClassDays    []int     `json:"class_days"`
}

// summarize restores ck into an engine and extracts the golden image.
func summarize(t testing.TB, ck *Checkpoint) *goldenSummary {
	t.Helper()
	e, err := NewFromCheckpoint(Config{Shards: 2}, ck)
	if err != nil {
		t.Fatalf("restore golden checkpoint: %v", err)
	}
	defer e.Close()
	st := e.Stats()
	sum := &goldenSummary{
		LastClosedDay:   st.LastClosedDay,
		Messages:        st.Messages,
		Ops:             st.Ops,
		Records:         e.Records(),
		Events:          st.Events,
		ActiveConflicts: st.ActiveConflicts,
	}
	for _, c := range e.Registry().Conflicts() {
		sum.Conflicts = append(sum.Conflicts, goldenConflict{
			Prefix:       c.Prefix.String(),
			FirstDay:     c.FirstDay,
			LastDay:      c.LastDay,
			DaysObserved: c.DaysObserved,
			OriginsEver:  c.OriginsEver,
			ClassDays:    c.ClassDays[:],
		})
	}
	return sum
}

func marshalSummary(t testing.TB, sum *goldenSummary) []byte {
	t.Helper()
	blob, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(blob, '\n')
}

// TestGoldenCheckpointsRestore is the compatibility battery: the frozen
// fixtures of every earlier form and the written form must all still
// decode and restore to exactly the same committed state summary. All
// five fixtures image the same engine, so one expectation serves.
func TestGoldenCheckpointsRestore(t *testing.T) {
	want, err := os.ReadFile(goldenExpect)
	if err != nil {
		t.Fatalf("missing golden expectation (regenerate with MOAS_GEN_GOLDEN=1): %v", err)
	}
	for _, path := range []string{frozenBinaryV1, frozenBinaryV2, frozenBinarySnap2, frozenBinarySnap3, goldenBinaryV2} {
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden fixture (regenerate with MOAS_GEN_GOLDEN=1): %v", err)
		}
		ck, err := DecodeCheckpointBinary(blob)
		if err != nil {
			t.Fatalf("%s no longer decodes: %v", path, err)
		}
		got := marshalSummary(t, summarize(t, ck))
		if !bytes.Equal(want, got) {
			t.Fatalf("%s restores to different state than committed:\nwant %s\n got %s", path, want, got)
		}
		// All five are images of one engine, so whichever was read
		// re-saves as the committed bytes of the written form: the codec
		// is stable to the byte, not only to the state.
		bin, err := AppendCheckpointBinary(nil, ck)
		if err != nil {
			t.Fatal(err)
		}
		if v2, _ := os.ReadFile(goldenBinaryV2); !bytes.Equal(bin, v2) {
			t.Errorf("%s re-saves to different MCKP v2 bytes than %s", path, goldenBinaryV2)
		}
	}
}

// frozen returns the committed bytes of a frozen fixture.
func frozen(t testing.TB, path string) []byte {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing frozen fixture: %v", err)
	}
	return blob
}

// TestGenerateGoldenCheckpoints rewrites the written form and the
// expectation from the current codec (never a frozen fixture); a skip
// unless MOAS_GEN_GOLDEN=1.
func TestGenerateGoldenCheckpoints(t *testing.T) {
	if os.Getenv("MOAS_GEN_GOLDEN") == "" {
		t.Skip("set MOAS_GEN_GOLDEN=1 to regenerate golden checkpoints")
	}
	ck := tinyCheckpoint(t)
	if err := os.MkdirAll(filepath.Dir(goldenBinaryV2), 0o755); err != nil {
		t.Fatal(err)
	}
	binV2, err := AppendCheckpointBinary(nil, ck)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenBinaryV2, binV2, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenExpect, marshalSummary(t, summarize(t, ck)), 0o644); err != nil {
		t.Fatal(err)
	}
}
