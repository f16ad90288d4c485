package mrt

import (
	"bufio"
	"fmt"
	"io"
)

// Framer splits an MRT stream into raw record frames: a walk of the
// length-prefixed common headers that hands out undecoded bodies into a
// buffer the caller owns. It is the package's one reading API and the
// one place header and body reads (and their error forms) live; a caller
// reading record by record keeps one buffer and passes buf[:0] to each
// NextInto. It buffers internally; do not mix reads of the underlying
// reader with Framer calls.
type Framer struct {
	br  *bufio.Reader
	hdr [headerLen]byte
}

// NewFramer returns a streaming MRT framer over r.
func NewFramer(r io.Reader) *Framer {
	return &Framer{br: bufio.NewReaderSize(r, 1<<16)}
}

// Reset repoints the Framer at a new source, keeping its 64 KiB
// read-ahead buffer, so re-reading an archive allocates nothing new.
func (f *Framer) Reset(src io.Reader) {
	f.br.Reset(src)
}

// readHeader reads and decodes one common header: io.EOF at a clean
// record boundary, ErrBadRecord for a truncated or malformed header.
func (f *Framer) readHeader() (Header, error) {
	if _, err := io.ReadFull(f.br, f.hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return Header{}, fmt.Errorf("%w: truncated header", ErrBadRecord)
		}
		return Header{}, err // io.EOF
	}
	return decodeHeader(f.hdr[:])
}

// NextInto reads the next record, appending its body to buf and
// returning the header alongside the grown buf. The body occupies
// buf[len(buf at call):]; batching callers record that offset to slice
// frames back out, so one arena holds a whole batch of bodies and the
// warm path allocates nothing. On error the returned buf is the input
// truncated back to its original length. Errors are io.EOF at a clean
// end of stream and io.ErrUnexpectedEOF for a mid-record truncation.
func (f *Framer) NextInto(buf []byte) (Header, []byte, error) {
	h, err := f.readHeader()
	if err != nil {
		return Header{}, buf, err
	}
	off := len(buf)
	need := off + int(h.Length)
	if cap(buf) < need {
		grown := make([]byte, off, max(need, 2*cap(buf)))
		copy(grown, buf)
		buf = grown
	}
	buf = buf[:need]
	if _, err := io.ReadFull(f.br, buf[off:]); err != nil {
		return Header{}, buf[:off], io.ErrUnexpectedEOF
	}
	return h, buf, nil
}

// Skip reads and discards the next record, returning only its header —
// the resume fast path: a header walk plus a buffered discard, no body
// copy at all. Errors match NextInto.
func (f *Framer) Skip() (Header, error) {
	h, err := f.readHeader()
	if err != nil {
		return Header{}, err
	}
	if _, err := f.br.Discard(int(h.Length)); err != nil {
		return Header{}, io.ErrUnexpectedEOF
	}
	return h, nil
}
