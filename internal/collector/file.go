package collector

import (
	"bufio"
	"compress/gzip"
	"io"
	"os"
)

// File-backed archives. Real collector archives live on disk (Route Views
// publishes BGP4MP update files, usually gzipped); this file is the bridge
// between those files and the streaming engine: open an archive for
// replay.

// OpenUpdateArchive opens an MRT BGP4MP update archive on disk for
// streaming. Gzip compression is detected by content (the 0x1f 0x8b magic
// bytes), not by file name, so renamed downloads still open. The returned
// reader is buffered; close it to release the file.
func OpenUpdateArchive(path string) (io.ReadCloser, error) {
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
			return nil, err
		}
		return &archiveFile{r: zr, closers: []io.Closer{zr, f}}, nil
	}
	return &archiveFile{r: br, closers: []io.Closer{f}}, nil
}

// archiveFile pairs the decoding reader with everything that must close
// beneath it.
type archiveFile struct {
	r       io.Reader
	closers []io.Closer
}

func (a *archiveFile) Read(p []byte) (int, error) { return a.r.Read(p) }

func (a *archiveFile) Close() error {
	var first error
	for _, c := range a.closers {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
