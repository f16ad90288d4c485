// Package binenc carries the primitive wire helpers shared by the binary
// snapshot codecs (kernel snapshots, stream checkpoints, serve scenario
// checkpoints): a bounds-checked varint reader over a byte slice, frame
// (length-prefixed section) helpers, and the compact prefix encoding.
//
// Encoding composes the standard library's binary.AppendUvarint /
// AppendVarint with the Append* helpers here; decoding goes through
// Reader, which latches the first error so codecs can decode a whole
// structure and check it once, with End, which also refuses bytes the
// structure left over. Reader is deliberately hostile-input
// safe: every count that sizes an allocation is validated against the
// bytes actually remaining, so a fuzzed or truncated snapshot fails with
// an error instead of an OOM or a panic.
package binenc

import (
	"encoding/binary"
	"errors"
	"fmt"

	"moas/internal/bgp"
)

// ErrTruncated reports input that ended before the structure did.
var ErrTruncated = errors.New("binenc: truncated input")

// ErrCorrupt reports input that decodes to an impossible value (bad
// varint, count larger than the bytes that would carry it, bad prefix).
var ErrCorrupt = errors.New("binenc: corrupt input")

// ErrRetired reports input in a format version this build once read and
// reads no longer: not damage, but a file for the last commit that reads
// it, which restores it and takes a checkpoint in the current form.
var ErrRetired = errors.New("binenc: retired format")

// Retired returns ErrRetired for an image in form (a format and the
// version found), naming lastReader, the last commit that reads it.
func Retired(form, lastReader string) error {
	return fmt.Errorf("%w: %s is no longer read; the last commit that reads it is %s", ErrRetired, form, lastReader)
}

// Reader decodes varint-framed binary data from a byte slice. The first
// failure latches into Err; every subsequent read returns zero values, so
// callers may decode an entire structure and check Err once at the end.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a Reader over b. The reader borrows b; callers must
// not mutate it while decoding.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first decode error, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns the number of bytes not yet consumed.
func (r *Reader) Len() int { return len(r.b) - r.off }

// End closes a frame or a whole input read field by field: it returns
// the latched error, or ErrCorrupt naming the bytes no field consumed,
// or nil when r was read exactly to its end. Every decoder ends each
// frame and its top-level reader with it, so a damaged or padded image
// is refused instead of silently skipped.
func (r *Reader) End() error {
	if r.err != nil {
		return r.err
	}
	if n := r.Len(); n != 0 {
		return fmt.Errorf("%w: %d bytes left over", ErrCorrupt, n)
	}
	return nil
}

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Uvarint decodes one unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		if n == 0 {
			r.fail(ErrTruncated)
		} else {
			r.fail(fmt.Errorf("%w: uvarint overflow", ErrCorrupt))
		}
		return 0
	}
	r.off += n
	return v
}

// Varint decodes one signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		if n == 0 {
			r.fail(ErrTruncated)
		} else {
			r.fail(fmt.Errorf("%w: varint overflow", ErrCorrupt))
		}
		return 0
	}
	r.off += n
	return v
}

// Int decodes a signed varint and narrows it to int.
func (r *Reader) Int() int { return int(r.Varint()) }

// Byte decodes one byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.fail(ErrTruncated)
		return 0
	}
	b := r.b[r.off]
	r.off++
	return b
}

// Bytes returns the next n bytes, borrowed from the input (copy before
// retaining past the input's lifetime).
func (r *Reader) Bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.Len() < n {
		r.fail(ErrTruncated)
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

// Count decodes an element count and validates it against the bytes
// remaining, assuming each element occupies at least elemMin bytes. This
// is the allocation guard: a fuzzed count of 2^50 fails here instead of
// sizing a slice.
func (r *Reader) Count(elemMin int) int {
	v := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if elemMin < 1 {
		elemMin = 1
	}
	if v > uint64(r.Len()/elemMin) {
		r.fail(fmt.Errorf("%w: count %d exceeds remaining input", ErrCorrupt, v))
		return 0
	}
	return int(v)
}

// Frame decodes one length-prefixed section and returns a sub-Reader over
// its payload; the parent reader advances past it.
func (r *Reader) Frame() *Reader {
	n := r.Count(1)
	return NewReader(r.Bytes(n))
}

// AppendFrame appends payload to dst as a length-prefixed section.
func AppendFrame(dst, payload []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	return append(dst, payload...)
}

// BeginFrame opens a section written in place: it reserves room for the
// length prefix, the caller appends the payload to the result, and
// EndFrame — given len(dst) from before BeginFrame — writes the length and
// closes the gap. The bytes are AppendFrame's, but the payload is never
// built in a buffer of its own, which at full-table scale doubles an
// encoder's memory.
func BeginFrame(dst []byte) []byte {
	return append(dst, make([]byte, binary.MaxVarintLen64)...)
}

// EndFrame closes the section BeginFrame opened at offset start.
func EndFrame(dst []byte, start int) []byte {
	payload := dst[start+binary.MaxVarintLen64:]
	dst = binary.AppendUvarint(dst[:start], uint64(len(payload)))
	return append(dst, payload...) // overlapping, leftwards: append is a memmove
}

// AppendPrefix appends the compact prefix encoding: family byte, prefix
// length byte, then the ceil(bits/8) network-address bytes.
func AppendPrefix(dst []byte, p bgp.Prefix) []byte {
	dst = append(dst, byte(p.Family()), p.Bits())
	a := p.Addr16()
	return append(dst, a[:(int(p.Bits())+7)/8]...)
}

// Prefix decodes one compact prefix.
func (r *Reader) Prefix() bgp.Prefix {
	fam := bgp.Family(r.Byte())
	bits := r.Byte()
	if r.err != nil {
		return bgp.Prefix{}
	}
	var max uint8
	switch fam {
	case bgp.FamilyIPv4:
		max = 32
	case bgp.FamilyIPv6:
		max = 128
	default:
		r.fail(fmt.Errorf("%w: prefix family %d", ErrCorrupt, fam))
		return bgp.Prefix{}
	}
	if bits > max {
		r.fail(fmt.Errorf("%w: /%d beyond %s", ErrCorrupt, bits, fam))
		return bgp.Prefix{}
	}
	var a [16]byte
	copy(a[:], r.Bytes((int(bits)+7)/8))
	if r.err != nil {
		return bgp.Prefix{}
	}
	if fam == bgp.FamilyIPv4 {
		return bgp.PrefixFrom4([4]byte(a[:4]), bits)
	}
	return bgp.PrefixFrom16(a, bits)
}
