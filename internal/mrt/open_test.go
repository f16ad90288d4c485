package mrt

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestOpen: a plain and a gzipped copy of one archive open to the same
// bytes — gzip detected by content, so the compressed copy is named like
// the plain one — as does an empty file; a missing file and a gzip
// stream with a corrupt header fail at Open.
func TestOpen(t *testing.T) {
	archive, _ := framerArchive(t)
	var zipped bytes.Buffer
	zw := gzip.NewWriter(&zipped)
	if _, err := zw.Write(archive); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for name, c := range map[string]struct{ data, want []byte }{
		"plain.mrt": {archive, archive},
		"gz.mrt":    {zipped.Bytes(), archive},
		"empty.mrt": {nil, nil},
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := Open(path)
		if err != nil {
			t.Fatalf("Open(%s): %v", name, err)
		}
		got, err := io.ReadAll(f)
		if err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
		if err := f.Close(); err != nil {
			t.Fatalf("close %s: %v", name, err)
		}
		if !bytes.Equal(got, c.want) {
			t.Fatalf("%s: read %d bytes, want %d", name, len(got), len(c.want))
		}
	}

	if _, err := Open(filepath.Join(dir, "missing.mrt")); err == nil {
		t.Fatal("Open of a missing file did not error")
	}
	corrupt := filepath.Join(dir, "corrupt.mrt.gz")
	if err := os.WriteFile(corrupt, []byte{0x1f, 0x8b, 0xff, 0xff}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(corrupt); err == nil {
		t.Fatal("Open accepted a corrupt gzip header")
	}
}
