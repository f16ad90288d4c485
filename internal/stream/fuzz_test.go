package stream

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// checkpointCorpusSeeds returns the fuzz seed inputs: the scripted
// checkpoint in every form — as written now (container v2 with kernel
// snapshot v4: the "-snap4" seeds) and as the frozen fixtures of the
// earlier forms hold it (container v1; container v2 with kernel snapshot
// v1, with v2 and with v3: the "-snap2" and "-snap3" seeds) — plus
// damaged variants. Seeds of
// the same names are committed under testdata/fuzz/FuzzCheckpointRestore
// (see TestGenerateCheckpointFuzzCorpus), beside the "json" seeds: JSON
// documents, which the decoder must refuse cleanly.
func checkpointCorpusSeeds(t testing.TB) map[string][]byte {
	t.Helper()
	ck := tinyCheckpoint(t)
	bin, err := AppendCheckpointBinary(nil, ck)
	if err != nil {
		t.Fatal(err)
	}
	seeds := map[string][]byte{"empty": {}}
	for name, blob := range map[string][]byte{
		"binary-snap4": bin,
		"binary-snap3": frozen(t, frozenBinarySnap3),
		"binary-snap2": frozen(t, frozenBinarySnap2),
		"binary":       frozen(t, frozenBinaryV2),
		"binary-v1":    frozen(t, frozenBinaryV1),
	} {
		seeds[name] = blob
		seeds[name+"-truncated"] = blob[:len(blob)/2]
		flipped := bytes.Clone(blob)
		flipped[len(flipped)/3] ^= 0x10
		seeds[name+"-flipped"] = flipped
	}
	return seeds
}

// FuzzCheckpointRestore is the checkpoint surface's robustness claim:
// any byte string fed to the decoder either errors or yields a checkpoint
// that NewFromCheckpoint restores into a fully usable engine (queries, a
// lifecycle with no negative duration, a re-checkpoint that encodes) —
// or rejects, without panicking or leaking shard goroutines either way.
func FuzzCheckpointRestore(f *testing.F) {
	for _, seed := range checkpointCorpusSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := DecodeCheckpointBinary(data)
		if err != nil {
			return
		}
		e, err := NewFromCheckpoint(Config{Shards: 2}, ck)
		if err != nil {
			return
		}
		defer e.Close()
		if st := e.Stats().Lifecycle; st.MaxDays < 0 || st.MeanDays < 0 || st.MedianDays < 0 {
			t.Fatalf("restored engine's lifecycle has negative durations: %+v", st)
		}
		e.ActiveConflicts()
		out := e.Checkpoint()
		if _, err := AppendCheckpointBinary(nil, out); err != nil {
			t.Fatalf("restored engine re-encodes with error: %v", err)
		}
	})
}

// TestGenerateCheckpointFuzzCorpus rewrites the committed seed corpus
// from the current codecs; a skip unless MOAS_GEN_FUZZ_CORPUS=1.
func TestGenerateCheckpointFuzzCorpus(t *testing.T) {
	if os.Getenv("MOAS_GEN_FUZZ_CORPUS") == "" {
		t.Skip("set MOAS_GEN_FUZZ_CORPUS=1 to regenerate testdata/fuzz")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzCheckpointRestore")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range checkpointCorpusSeeds(t) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, "seed-"+name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
