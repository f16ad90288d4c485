package mrt

import (
	"bufio"
	"io"
)

// bodyAppender is implemented by every typed record.
type bodyAppender interface {
	AppendBody(dst []byte) []byte
}

// Writer streams MRT records to an io.Writer with internal buffering.
// Call Flush before using the underlying writer's contents.
type Writer struct {
	bw   *bufio.Writer
	hdr  [headerLen]byte
	body []byte // typed records encode here
}

// NewWriter returns a buffering MRT writer.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 1<<16)}
}

// WriteRecord writes one record with the given header fields; the Length
// field is computed from the body.
func (w *Writer) WriteRecord(timestamp uint32, typ Type, subtype uint16, body []byte) error {
	h := Header{Timestamp: timestamp, Type: typ, Subtype: subtype, Length: uint32(len(body))}
	if _, err := w.bw.Write(h.AppendHeader(w.hdr[:0])); err != nil {
		return err
	}
	_, err := w.bw.Write(body)
	return err
}

// writeTyped encodes rec and writes it with the given header fields.
func (w *Writer) writeTyped(timestamp uint32, typ Type, subtype uint16, rec bodyAppender) error {
	w.body = rec.AppendBody(w.body[:0])
	return w.WriteRecord(timestamp, typ, subtype, w.body)
}

// WriteTableDump writes one TABLE_DUMP record.
func (w *Writer) WriteTableDump(timestamp uint32, d *TableDump) error {
	return w.writeTyped(timestamp, TypeTableDump, d.Subtype(), d)
}

// WritePeerIndexTable writes the TABLE_DUMP_V2 peer index preamble.
func (w *Writer) WritePeerIndexTable(timestamp uint32, t *PeerIndexTable) error {
	return w.writeTyped(timestamp, TypeTableDumpV2, SubtypePeerIndexTable, t)
}

// WriteRIB writes one TABLE_DUMP_V2 RIB record.
func (w *Writer) WriteRIB(timestamp uint32, r *RIB) error {
	return w.writeTyped(timestamp, TypeTableDumpV2, r.Subtype(), r)
}

// WriteBGP4MPMessage writes one BGP4MP_MESSAGE record.
func (w *Writer) WriteBGP4MPMessage(timestamp uint32, m *BGP4MPMessage) error {
	return w.writeTyped(timestamp, TypeBGP4MP, SubtypeMessage, m)
}

// WriteBGP4MPStateChange writes one BGP4MP_STATE_CHANGE record.
func (w *Writer) WriteBGP4MPStateChange(timestamp uint32, m *BGP4MPStateChange) error {
	return w.writeTyped(timestamp, TypeBGP4MP, SubtypeStateChange, m)
}

// Flush drains buffered bytes to the underlying writer.
func (w *Writer) Flush() error { return w.bw.Flush() }
