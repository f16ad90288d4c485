package collector

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"testing"

	"moas/internal/mrt"
	"moas/internal/scenario"
)

// TestSaveAndOpenUpdateArchive round-trips a scenario's update archive
// through disk, plain and gzipped, and checks both open through mrt.Open
// to byte-identical streams (gzip detected by magic bytes, not file
// name).
func TestSaveAndOpenUpdateArchive(t *testing.T) {
	sc, err := scenario.Build(scenario.TestSpec())
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := WriteUpdateArchive(&want, sc); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	plain := filepath.Join(dir, "updates.mrt")
	// The gzipped copy deliberately lacks a .gz-ish read hint beyond its
	// write-side suffix; mrt.Open must sniff content.
	gzipped := filepath.Join(dir, "updates.mrt.gz")
	var zipped bytes.Buffer
	zw := gzip.NewWriter(&zipped)
	if _, err := zw.Write(want.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	for path, data := range map[string][]byte{plain: want.Bytes(), gzipped: zipped.Bytes()} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := mrt.Open(path)
		if err != nil {
			t.Fatalf("mrt.Open(%s): %v", path, err)
		}
		got, err := io.ReadAll(f)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		if err := f.Close(); err != nil {
			t.Fatalf("close %s: %v", path, err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%s: decoded archive differs from in-memory archive (%d vs %d bytes)",
				path, len(got), want.Len())
		}
	}

	if _, err := mrt.Open(filepath.Join(dir, "missing.mrt")); err == nil {
		t.Fatal("mrt.Open of a missing file did not error")
	}
}
