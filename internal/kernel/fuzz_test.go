package kernel_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"moas/internal/bgp"
	"moas/internal/core"
	"moas/internal/kernel"
)

// corpusSeeds returns the fuzz seed inputs: a real snapshot and damaged
// variants of it, at the current version. The same bytes are committed
// under testdata/fuzz/FuzzSnapshotRestore (see TestGenerateFuzzCorpus)
// as the "v4-" seeds, beside the "v3-" and "v2-" seeds versions 3 and 2
// wrote and the unprefixed ones version 1 wrote, which stay committed as
// they were: the decoder refuses those versions as retired, and `go test`
// and the CI fuzz-smoke step hold it to refusing them, damaged or not,
// without a panic. The committed "json" seeds are JSON documents, which
// the decoder must refuse cleanly.
func corpusSeeds(t testing.TB) map[string][]byte {
	t.Helper()
	snap := midRunSnapshot(t)
	bin := kernel.AppendSnapshotBinary(nil, snap)
	flipped := bytes.Clone(bin)
	flipped[len(flipped)/2] ^= 0x40
	return map[string][]byte{
		"v4-binary":           bin,
		"v4-binary-truncated": bin[:len(bin)/2],
		"v4-binary-flipped":   flipped,
		"empty":               {},
	}
}

// FuzzSnapshotRestore is the snapshot surface's robustness claim: any
// byte string fed to the decoder either errors or yields a snapshot that
// restores into a fully usable kernel — no panic, no deferred crash in
// CloseDay/Apply/Snapshot, and a re-encode that decodes.
func FuzzSnapshotRestore(f *testing.F) {
	for _, seed := range corpusSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := kernel.DecodeSnapshotBinary(data)
		if err != nil {
			return
		}
		k := kernel.New(kernel.Options{})
		if err := k.Restore(s); err != nil {
			return
		}
		// A restore that succeeded must leave a working state machine.
		k.CloseDay(1 << 20)
		k.Apply(kernel.Obs{
			Day:     1 << 20,
			Prefix:  bgp.MustParsePrefix("203.0.113.0/24"),
			Origins: []bgp.ASN{64500, 64501},
			Class:   core.ClassDistinctPaths,
		})
		var d kernel.Durations
		k.AddDurations(&d, 1<<20)
		if st := d.Stats(); st.MaxDays < 0 || st.MeanDays < 0 || st.MedianDays < 0 {
			t.Fatalf("restored kernel's lifecycle has negative durations: %+v", st)
		}
		out := k.Snapshot()
		if _, err := kernel.DecodeSnapshotBinary(kernel.AppendSnapshotBinary(nil, out)); err != nil {
			t.Fatalf("restored kernel's re-encoding does not decode: %v", err)
		}
	})
}

// TestGenerateFuzzCorpus rewrites the committed seed corpus from the
// current codecs. Run with MOAS_GEN_FUZZ_CORPUS=1 after a deliberate
// format change; it is a skip otherwise.
func TestGenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("MOAS_GEN_FUZZ_CORPUS") == "" {
		t.Skip("set MOAS_GEN_FUZZ_CORPUS=1 to regenerate testdata/fuzz")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzSnapshotRestore")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range corpusSeeds(t) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, "seed-"+name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
