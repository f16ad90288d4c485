package stream

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// checkpointCorpusSeeds returns the fuzz seed inputs: the scripted
// checkpoint as written now (container 2 with kernel snapshot 4: the
// "-snap4" seeds) and in the retired forms the decoder refuses
// (retiredForms: container 1, the "-v1" seeds, and kernel snapshot 1-3,
// the unsuffixed, "-snap2" and "-snap3" ones), each with damaged
// variants. Seeds of the same names are committed under
// testdata/fuzz/FuzzCheckpointRestore (see
// TestGenerateCheckpointFuzzCorpus): there the retired seeds are the
// files those forms' writers produced, which the decoder must refuse
// without a panic, as it must the "json" seeds, JSON documents.
func checkpointCorpusSeeds(t testing.TB) map[string][]byte {
	t.Helper()
	ck := tinyCheckpoint(t)
	bin, err := AppendCheckpointBinary(nil, ck)
	if err != nil {
		t.Fatal(err)
	}
	retired := retiredForms(t, bin)
	seeds := map[string][]byte{"empty": {}}
	for name, blob := range map[string][]byte{
		"binary-snap4": bin,
		"binary-snap3": retired["v2-snap3"],
		"binary-snap2": retired["v2-snap2"],
		"binary":       retired["v2-snap1"],
		"binary-v1":    retired["v1"],
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
