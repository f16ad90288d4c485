package vfs

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFileAtomic: a write lands whole and leaves no temp file; a
// write that fails at any step leaves the old file as it was and removes
// its temp file.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	if err := WriteFileAtomic(OS{}, path, ".tmp-f-*", []byte("old")); err != nil {
		t.Fatal(err)
	}
	for _, op := range []Op{OpCreate, OpWrite, OpSync, OpRename} {
		fs := NewFaulty(nil)
		fs.AddFault(Fault{Op: op})
		if err := WriteFileAtomic(fs, path, ".tmp-f-*", []byte("new")); !errors.Is(err, ErrInjected) {
			t.Fatalf("%s fault: err %v, want ErrInjected", op, err)
		}
		if b, err := os.ReadFile(path); err != nil || string(b) != "old" {
			t.Fatalf("%s fault: file holds %q (%v), want the old content", op, b, err)
		}
		if ents, _ := os.ReadDir(dir); len(ents) != 1 {
			t.Fatalf("%s fault left %d files behind", op, len(ents)-1)
		}
	}
	if err := WriteFileAtomic(OS{}, path, ".tmp-f-*", []byte("new")); err != nil {
		t.Fatal(err)
	}
	if b, _ := os.ReadFile(path); string(b) != "new" {
		t.Fatalf("file holds %q after a clean write", b)
	}
}

// TestRemoveTemps: the sweep removes exactly the regular files with the
// prefix.
func TestRemoveTemps(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{".tmp-a", ".tmp-b", "keep", ".other"} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, ".tmp-dir"), 0o755); err != nil {
		t.Fatal(err)
	}
	removed, err := RemoveTemps(OS{}, dir, ".tmp-")
	if err != nil || len(removed) != 2 {
		t.Fatalf("removed %v, err %v; want the two temp files", removed, err)
	}
	ents, _ := os.ReadDir(dir)
	var left []string
	for _, e := range ents {
		left = append(left, e.Name())
	}
	if len(left) != 3 {
		t.Fatalf("left %v, want .other, .tmp-dir and keep", left)
	}
}
