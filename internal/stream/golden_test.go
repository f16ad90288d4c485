package stream

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"moas/internal/bgp"
	"moas/internal/kernel"
)

// The golden fixture pins the checkpoint format: a scripted engine
// checkpoint committed in the written form (container 2, kernel snapshot
// 4) plus the state summary it must restore to. A codec change that can't
// read these bytes — or reads them into different state — fails here
// instead of silently orphaning every archived checkpoint. Regenerate
// them (only after a deliberate, version-bumped format change) with
// MOAS_GEN_GOLDEN=1. The forms that came before (container 1, kernel
// snapshots 1-3) are refused as retired; retiredForms builds them. The
// expectation, a JSON document, is a summary of the restored state, not
// a checkpoint.
const (
	goldenBinaryV2 = "testdata/checkpoint_v2_snap4.mckpt"
	goldenExpect   = "testdata/checkpoint_v2_snap4.expect.json"
)

// retiredForms returns bin, a current checkpoint image, in each retired
// form the decoder must refuse with binenc.ErrRetired: its container slot
// set to 1 ("v1"), and its kernel snapshot's version set to 1, 2 or 3
// ("v2-snap1" to "v2-snap3"). The version is all the decoder reads of a
// retired form, so the bytes after it need not be that form's.
func retiredForms(t testing.TB, bin []byte) map[string][]byte {
	t.Helper()
	msnp := msnpVersionAt(bin)
	if bin[len(checkpointMagic)] != checkpointContainer || msnp < len("MSNP") || bin[msnp] != kernel.SnapshotVersion {
		t.Fatalf("% x is not a current checkpoint image", bin)
	}
	forms := map[string][]byte{"v1": bytes.Clone(bin)}
	forms["v1"][len(checkpointMagic)] = 1
	for v := byte(1); v < kernel.SnapshotVersion; v++ {
		form := bytes.Clone(bin)
		form[msnp] = v
		forms[fmt.Sprintf("v2-snap%d", v)] = form
	}
	return forms
}

// msnpVersionAt returns the offset of the kernel snapshot's version byte
// in a checkpoint image (the byte after its "MSNP" magic).
func msnpVersionAt(bin []byte) int { return bytes.Index(bin, []byte("MSNP")) + len("MSNP") }

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

// TestGoldenCheckpointsRestore is the compatibility battery: the
// committed fixture must still decode and restore to exactly the
// committed state summary, and re-save as its own bytes: the codec is
// stable to the byte, not only to the state.
func TestGoldenCheckpointsRestore(t *testing.T) {
	want, err := os.ReadFile(goldenExpect)
	if err != nil {
		t.Fatalf("missing golden expectation (regenerate with MOAS_GEN_GOLDEN=1): %v", err)
	}
	blob, err := os.ReadFile(goldenBinaryV2)
	if err != nil {
		t.Fatalf("missing golden fixture (regenerate with MOAS_GEN_GOLDEN=1): %v", err)
	}
	ck, err := DecodeCheckpointBinary(blob)
	if err != nil {
		t.Fatalf("%s no longer decodes: %v", goldenBinaryV2, err)
	}
	if got := marshalSummary(t, summarize(t, ck)); !bytes.Equal(want, got) {
		t.Fatalf("%s restores to different state than committed:\nwant %s\n got %s", goldenBinaryV2, want, got)
	}
	bin, err := AppendCheckpointBinary(nil, ck)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bin, blob) {
		t.Errorf("%s re-saves to different bytes", goldenBinaryV2)
	}
}

// TestGenerateGoldenCheckpoints rewrites the fixture and the expectation
// from the current codec; a skip unless MOAS_GEN_GOLDEN=1.
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
