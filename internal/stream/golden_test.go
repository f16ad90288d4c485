package stream

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"

	"moas/internal/bgp"
)

// The golden fixtures pin the checkpoint formats: a scripted engine
// checkpoint committed in every encoding plus the state summary it must
// restore to. Future codec changes that can't read these bytes — or
// read them into different state — fail here instead of silently
// orphaning every archived checkpoint. Regenerate the written forms
// (only after a deliberate, version-bumped format change) with
// MOAS_GEN_GOLDEN=1, under new names; the files they replace stay
// committed as frozen fixtures of the forms that came before, which no
// writer produces any more and every reader test decodes:
//
//	checkpoint_v1.mckpt        container v1, kernel snapshot v1
//	checkpoint_v2.mckpt        container v2, kernel snapshot v1
//	checkpoint_v1.json         JSON, kernel snapshot v1
//	checkpoint_v2_snap2.mckpt  container v2, kernel snapshot v2
//	checkpoint_v1_snap2.json   JSON, kernel snapshot v2
//
// Kernel snapshot v2 made histories compact; the written forms carry
// kernel snapshot v3 (the _snap3 files), which drops the event log the
// earlier ones carry — the log a test engine retained then, which every
// reader checks and drops.
const (
	goldenJSON     = "testdata/checkpoint_v1_snap3.json"
	goldenBinaryV2 = "testdata/checkpoint_v2_snap3.mckpt"
	goldenExpect   = "testdata/checkpoint_v1.expect.json"

	frozenBinaryV1    = "testdata/checkpoint_v1.mckpt"
	frozenBinaryV2    = "testdata/checkpoint_v2.mckpt"
	frozenJSON        = "testdata/checkpoint_v1.json"
	frozenBinarySnap2 = "testdata/checkpoint_v2_snap2.mckpt"
	frozenJSONSnap2   = "testdata/checkpoint_v1_snap2.json"
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
// fixtures of every earlier form and the written forms must all still
// decode — each through its codec — and restore to exactly the
// same committed state summary. All seven fixtures image the same engine,
// so one expectation serves.
func TestGoldenCheckpointsRestore(t *testing.T) {
	want, err := os.ReadFile(goldenExpect)
	if err != nil {
		t.Fatalf("missing golden expectation (regenerate with MOAS_GEN_GOLDEN=1): %v", err)
	}
	for _, path := range []string{frozenBinaryV1, frozenBinaryV2, frozenJSON, frozenBinarySnap2, frozenJSONSnap2, goldenJSON, goldenBinaryV2} {
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden fixture (regenerate with MOAS_GEN_GOLDEN=1): %v", err)
		}
		ck, err := decodeByMagic(blob)
		if err != nil {
			t.Fatalf("%s no longer decodes: %v", path, err)
		}
		got := marshalSummary(t, summarize(t, ck))
		if !bytes.Equal(want, got) {
			t.Fatalf("%s restores to different state than committed:\nwant %s\n got %s", path, want, got)
		}
		// All seven are images of one engine, so whichever was read
		// re-saves as the committed bytes of either written form: the
		// codecs are stable to the byte, not only to the state.
		bin, err := AppendCheckpointBinary(nil, ck)
		if err != nil {
			t.Fatal(err)
		}
		if v2, _ := os.ReadFile(goldenBinaryV2); !bytes.Equal(bin, v2) {
			t.Errorf("%s re-saves to different MCKP v2 bytes than %s", path, goldenBinaryV2)
		}
		var js bytes.Buffer
		if err := json.NewEncoder(&js).Encode(ck); err != nil {
			t.Fatal(err)
		}
		if doc, _ := os.ReadFile(goldenJSON); !bytes.Equal(js.Bytes(), doc) {
			t.Errorf("%s re-saves to different JSON than %s", path, goldenJSON)
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

// jsonShape unmarshals a JSON document generically and sorts every array
// of objects by its "prefix" or "peer_ip" member, so two documents compare
// equal exactly when they agree on field names, text forms and values —
// whatever order their entries are in.
func jsonShape(t testing.TB, doc []byte) any {
	t.Helper()
	var v any
	if err := json.Unmarshal(doc, &v); err != nil {
		t.Fatal(err)
	}
	var walk func(v any)
	walk = func(v any) {
		switch v := v.(type) {
		case map[string]any:
			for _, e := range v {
				walk(e)
			}
		case []any:
			key := func(e any) string {
				m, _ := e.(map[string]any)
				p, _ := m["prefix"].(string)
				ip, _ := m["peer_ip"].(string)
				return p + ip
			}
			sort.SliceStable(v, func(i, j int) bool { return key(v[i]) < key(v[j]) })
			for _, e := range v {
				walk(e)
			}
		}
	}
	walk(v)
	return v
}

// TestCheckpointJSONWireShape pins the JSON document — every field name
// and every text form (prefixes as "addr/len", peer addresses and
// attribute blocks as hex) — against the committed written form, without
// pinning the order of entries, which no reader depends on. Kernel
// snapshot v2 changed no more of it than its version number, and v3 no
// more than that and the "log" member it drops: the frozen documents
// differ in those alone.
func TestCheckpointJSONWireShape(t *testing.T) {
	want, err := os.ReadFile(goldenJSON)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := json.NewEncoder(&got).Encode(tinyCheckpoint(t)); err != nil {
		t.Fatal(err)
	}
	if w, g := jsonShape(t, want), jsonShape(t, got.Bytes()); !reflect.DeepEqual(w, g) {
		t.Fatalf("JSON checkpoint changed shape:\nwant %s\n got %s", want, got.Bytes())
	}
	v1 := bytes.Replace(frozen(t, frozenJSON), []byte(`"kernel":{"version":1,`), []byte(`"kernel":{"version":2,`), 1)
	snap2 := frozen(t, frozenJSONSnap2)
	if !bytes.Equal(v1, snap2) {
		t.Fatalf("the frozen v2 JSON differs from the frozen v1 document beyond the kernel version:\nv1 %s\nv2 %s", v1, snap2)
	}
	// Cut the "log" member, the last of the kernel object, out of the v2
	// document: from its comma to the bracket that closes its array.
	at := bytes.Index(snap2, []byte(`,"log":[`))
	if at < 0 {
		t.Fatal("the frozen v2 JSON carries no event log")
	}
	end, depth := at+len(`,"log":`), 0
	for ; end < len(snap2); end++ {
		if snap2[end] == '[' {
			depth++
		} else if snap2[end] == ']' {
			if depth--; depth == 0 {
				break
			}
		}
	}
	v3 := slices.Concat(snap2[:at], snap2[end+1:])
	v3 = bytes.Replace(v3, []byte(`"kernel":{"version":2,`), []byte(`"kernel":{"version":3,`), 1)
	if !bytes.Equal(v3, want) {
		t.Fatalf("the written JSON differs from the frozen v2 document beyond the kernel version and log:\nv2  %s\nnow %s", snap2, want)
	}
}

// TestGenerateGoldenCheckpoints rewrites the written forms and the
// expectation from the current codecs (never a frozen fixture); a skip
// unless MOAS_GEN_GOLDEN=1.
func TestGenerateGoldenCheckpoints(t *testing.T) {
	if os.Getenv("MOAS_GEN_GOLDEN") == "" {
		t.Skip("set MOAS_GEN_GOLDEN=1 to regenerate golden checkpoints")
	}
	ck := tinyCheckpoint(t)
	if err := os.MkdirAll(filepath.Dir(goldenJSON), 0o755); err != nil {
		t.Fatal(err)
	}
	var js bytes.Buffer
	if err := json.NewEncoder(&js).Encode(ck); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenJSON, js.Bytes(), 0o644); err != nil {
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
