package mrt

import (
	"bufio"
	"compress/gzip"
	"io"
	"os"
)

// Open opens an MRT archive on disk for streaming: the one way a file
// enters the repository. Gzip compression (the NLANR snapshots shipped as
// oix-full-snapshot-*.gz; Route Views' update files are gzipped too) is
// detected by content — the 0x1f 0x8b magic bytes — not by file name, so
// renamed downloads still open. Errors name the file, as os.Open's do.
// The returned reader is buffered; close it to release the file.
func Open(path string) (io.ReadCloser, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	br := bufio.NewReaderSize(f, 1<<16)
	magic, err := br.Peek(2)
	if err != nil && err != io.EOF {
		f.Close()
		return nil, err
	}
	if len(magic) == 2 && magic[0] == 0x1f && magic[1] == 0x8b {
		zr, err := gzip.NewReader(br)
		if err != nil {
			f.Close()
			return nil, &os.PathError{Op: "gunzip", Path: path, Err: err}
		}
		return &archive{Reader: zr, closers: []io.Closer{zr, f}}, nil
	}
	return &archive{Reader: br, closers: []io.Closer{f}}, nil
}

// archive pairs the decoding reader with everything that must close
// beneath it.
type archive struct {
	io.Reader
	closers []io.Closer
}

func (a *archive) Close() error {
	var first error
	for _, c := range a.closers {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
