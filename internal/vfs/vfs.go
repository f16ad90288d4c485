// Package vfs is the small filesystem seam the durability layers write
// through. Production code uses OS, a thin veneer over package os;
// tests and the chaos oracle substitute Faulty, which injects
// deterministic fault schedules (ENOSPC after a byte budget, fsync
// failure, error-once-then-heal, torn writes, slow IO, panics) so
// crash-safety and graceful-degradation claims can be proven instead
// of asserted. The interface is deliberately minimal: exactly the
// operations serve's checkpoint store and the episode log perform.
// Both write whole files through WriteFileAtomic and sweep what a crash
// stranded with RemoveTemps.
package vfs

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// ErrNoSpace is the canonical injected out-of-disk error. It wraps
// nothing OS-specific so tests can match it with errors.Is.
var ErrNoSpace = errors.New("vfs: no space left on device")

// File is the subset of *os.File the durability layers use.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	Name() string
	Sync() error
	Truncate(size int64) error
	Seek(offset int64, whence int) (int64, error)
}

// FS abstracts the filesystem operations behind checkpoint and
// episode-log durability. Implementations must be safe for concurrent
// use by multiple goroutines.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Open(name string) (File, error)
	CreateTemp(dir, pattern string) (File, error)
	ReadFile(name string) ([]byte, error)
	ReadDir(name string) ([]os.DirEntry, error)
	Stat(name string) (os.FileInfo, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	RemoveAll(path string) error
	MkdirAll(path string, perm os.FileMode) error
	// SyncDir fsyncs a directory so a preceding rename is durable.
	// Implementations may treat failures as best-effort.
	SyncDir(dir string) error
}

// OS is the production FS: every call forwards to package os.
type OS struct{}

// OpenFile forwards to os.OpenFile.
func (OS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

// Open forwards to os.Open.
func (OS) Open(name string) (File, error) { return os.Open(name) }

// CreateTemp forwards to os.CreateTemp.
func (OS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }

// ReadFile forwards to os.ReadFile.
func (OS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// ReadDir forwards to os.ReadDir.
func (OS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }

// Stat forwards to os.Stat.
func (OS) Stat(name string) (os.FileInfo, error) { return os.Stat(name) }

// Rename forwards to os.Rename.
func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove forwards to os.Remove.
func (OS) Remove(name string) error { return os.Remove(name) }

// RemoveAll forwards to os.RemoveAll.
func (OS) RemoveAll(path string) error { return os.RemoveAll(path) }

// MkdirAll forwards to os.MkdirAll.
func (OS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

// SyncDir opens the directory and fsyncs it, ignoring failure:
// directory fsync is advisory on some filesystems.
func (OS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	_ = d.Sync()
	return d.Close()
}

// Default returns fs, or OS when fs is nil — the idiom every adopter
// uses so a zero-value Options keeps working against the real disk.
func Default(fs FS) FS {
	if fs == nil {
		return OS{}
	}
	return fs
}

// WriteFileAtomic puts data at path so that a crash leaves either the
// old file or the whole new one: it writes a temp file in path's
// directory (named from pattern, as CreateTemp takes it), fsyncs and
// closes it, renames it into place and syncs the directory. The temp
// file is removed on any failure; a crash can still strand it, which is
// what RemoveTemps sweeps.
func WriteFileAtomic(fs FS, path, pattern string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := fs.CreateTemp(dir, pattern)
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fs.Rename(tmp.Name(), path)
	}
	if err != nil {
		_ = fs.Remove(tmp.Name())
		return err
	}
	// Makes the rename durable; best-effort, as SyncDir itself is.
	_ = fs.SyncDir(dir)
	return nil
}

// RemoveTemps deletes the regular files in dir whose names start with
// prefix — temp files a crash stranded mid-WriteFileAtomic, whose
// content was never reachable — and returns the paths it removed. A
// failed removal does not stop the sweep; the failures are returned
// joined.
func RemoveTemps(fs FS, dir, prefix string) (removed []string, err error) {
	ents, err := fs.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() || !strings.HasPrefix(e.Name(), prefix) {
			continue
		}
		path := filepath.Join(dir, e.Name())
		if rerr := fs.Remove(path); rerr != nil {
			err = errors.Join(err, rerr)
			continue
		}
		removed = append(removed, path)
	}
	return removed, err
}
