package mrt

import (
	"fmt"
	"io"
)

// Reader streams MRT records from an io.Reader: a Framer plus one reused
// body buffer. It buffers internally; do not mix reads of the underlying
// reader with Reader calls.
type Reader struct {
	fr   Framer
	body []byte // reused across Next calls
}

// NewReader returns a streaming MRT reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{fr: *NewFramer(r)}
}

// Reset repoints the Reader at a new source, keeping its internal buffers
// (the 64 KiB read-ahead and the record body scratch). Together with Next's
// body reuse it makes reading N records — or re-reading the same archive —
// an O(1)-allocation affair, which the ingest alloc gate depends on.
func (r *Reader) Reset(src io.Reader) {
	r.fr.Reset(src)
}

// Next returns the next raw record. The record's Body is valid only until
// the following Next call; callers keeping data must copy it (the typed
// Decode* methods already copy what they retain). Next returns io.EOF at a
// clean end of stream and io.ErrUnexpectedEOF for a mid-record truncation.
func (r *Reader) Next() (Record, error) {
	h, body, err := r.fr.NextInto(r.body[:0])
	if err != nil {
		return Record{}, err
	}
	r.body = body
	return Record{Header: h, Body: body}, nil
}

// Decoded is any typed MRT record value returned by DecodeRecord.
type Decoded any

// DecodeRecord decodes a raw record into its typed form: *TableDump,
// *PeerIndexTable, *RIB, *BGP4MPMessage or *BGP4MPStateChange. Unknown
// types and subtypes return ErrUnknownRecord so callers can skip them, as
// archive consumers must.
func DecodeRecord(rec Record) (Decoded, error) {
	switch rec.Type {
	case TypeTableDump:
		d := new(TableDump)
		if err := d.DecodeTableDump(rec.Body, rec.Subtype); err != nil {
			return nil, err
		}
		return d, nil
	case TypeTableDumpV2:
		switch rec.Subtype {
		case SubtypePeerIndexTable:
			t := new(PeerIndexTable)
			if err := t.DecodePeerIndexTable(rec.Body); err != nil {
				return nil, err
			}
			return t, nil
		case SubtypeRIBIPv4Unicast, SubtypeRIBIPv6Unicast:
			rr := new(RIB)
			if err := rr.DecodeRIB(rec.Body, rec.Subtype); err != nil {
				return nil, err
			}
			return rr, nil
		}
	case TypeBGP4MP:
		switch rec.Subtype {
		case SubtypeMessage:
			m := new(BGP4MPMessage)
			if err := m.DecodeBGP4MPMessage(rec.Body); err != nil {
				return nil, err
			}
			return m, nil
		case SubtypeStateChange:
			m := new(BGP4MPStateChange)
			if err := m.DecodeBGP4MPStateChange(rec.Body); err != nil {
				return nil, err
			}
			return m, nil
		}
	}
	return nil, fmt.Errorf("%w: %v subtype %d", ErrUnknownRecord, rec.Type, rec.Subtype)
}

// ErrUnknownRecord reports a record type/subtype this library does not
// decode; archive readers should skip such records rather than abort.
var ErrUnknownRecord = fmt.Errorf("mrt: unknown record")
