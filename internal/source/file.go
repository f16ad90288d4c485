package source

import (
	"fmt"
	"io"
	"sync/atomic"

	"moas/internal/bgp"
	"moas/internal/mrt"
)

// File is a Source over a BGP4MP MRT update archive stream: the replay
// path expressed in live-ingest terms, so the engine's source loop and
// the equivalence tests can treat an archive exactly like a feed. Each
// delivered record is one BGP UPDATE; non-message records and
// non-update message kinds are skipped (through the Decoder the replay
// framer uses, so a malformed archive fails identically). Seq
// counts delivered updates only — the cursor a live checkpoint stores —
// which deliberately differs from the raw-record cursor Replay keeps for
// ReplayOptions.Resume.
type File struct {
	path   string
	mr     *mrt.Reader
	dec    Decoder
	seq    atomic.Uint64
	closed atomic.Bool
	done   atomic.Bool
	err    atomic.Value // string: terminal error text, for Status
}

// NewFileReader wraps an already-open archive stream as a Source
// decoding with in. endpoint is a label for Status. The interner is
// shared with the engine the source feeds.
func NewFileReader(r io.Reader, endpoint string, in *bgp.AttrsInterner) *File {
	return &File{path: endpoint, mr: mrt.NewReader(r), dec: Decoder{Interner: in}}
}

// Next delivers the next UPDATE in archive order.
func (s *File) Next(rec *Record) error {
	if s.closed.Load() {
		return io.EOF
	}
	for {
		mrec, err := s.mr.Next()
		if err == io.EOF || (err != nil && s.closed.Load()) {
			// A read failing after Close is the caller tearing the stream
			// down: a clean shutdown, not an archive error.
			s.done.Store(true)
			return io.EOF
		}
		var kind Kind
		if err == nil {
			kind, err = s.dec.Decode(rec, mrec.Header, mrec.Body)
		}
		if err != nil {
			s.done.Store(true)
			s.err.Store(err.Error())
			return fmt.Errorf("source: %s: %w", s.path, err)
		}
		if kind == KindUpdate {
			rec.Seq = s.seq.Add(1)
			return nil
		}
	}
}

// Buffered implements Source: a file never waits on a peer.
func (s *File) Buffered() bool { return true }

// Status implements Source.
func (s *File) Status() Status {
	st := Status{
		Kind:      "file",
		Endpoint:  s.path,
		Connected: !s.done.Load() && !s.closed.Load(),
		Records:   s.seq.Load(),
	}
	if v, ok := s.err.Load().(string); ok {
		st.LastError = v
	}
	return st
}

// Close implements Source. The next Next returns io.EOF; a concurrent
// Next may deliver one final record.
func (s *File) Close() error {
	s.closed.Store(true)
	return nil
}
