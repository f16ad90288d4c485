package mrt

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"moas/internal/bgp"
)

// frame is one record as written: its header and body.
type frame struct {
	Header
	Body []byte
}

// framerArchive builds a small mixed archive — BGP4MP messages of
// varying sizes plus an unknown-type record — and returns it alongside
// the records written into it, the framing oracle.
func framerArchive(t *testing.T) ([]byte, []frame) {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	var want []frame
	add := func(ts uint32, typ Type, sub uint16, body []byte) {
		if err := w.WriteRecord(ts, typ, sub, body); err != nil {
			t.Fatal(err)
		}
		want = append(want, frame{Header{Timestamp: ts, Type: typ, Subtype: sub, Length: uint32(len(body))}, body})
	}
	for i := 0; i < 20; i++ {
		m := &BGP4MPMessage{
			PeerAS:  bgp.ASN(64500 + i),
			LocalAS: 65000,
			Family:  bgp.FamilyIPv4,
			Data:    bytes.Repeat([]byte{byte(i)}, 19+i*7),
		}
		add(uint32(i*100), TypeBGP4MP, SubtypeMessage, m.AppendBody(nil))
	}
	add(5000, Type(99), 7, []byte("not a bgp record"))
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), want
}

// TestFramerMatchesWriter pins the Framer's frame boundaries to what the
// Writer wrote: same headers, same bodies, same clean EOF — with all
// bodies landing back-to-back in one caller-owned arena.
func TestFramerMatchesWriter(t *testing.T) {
	archive, want := framerArchive(t)
	f := NewFramer(bytes.NewReader(archive))
	buf := make([]byte, 0, 64) // deliberately small: forces arena growth
	var got []frame
	var offs []int
	for {
		h, nb, err := f.NextInto(buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		buf = nb
		got = append(got, frame{Header: h})
		offs = append(offs, len(buf))
	}
	if len(got) != len(want) {
		t.Fatalf("framed %d records, want %d", len(got), len(want))
	}
	off := 0
	for i := range got {
		got[i].Body = buf[off:offs[i]]
		off = offs[i]
		if got[i].Header != want[i].Header {
			t.Fatalf("record %d header = %+v, want %+v", i, got[i].Header, want[i].Header)
		}
		if !bytes.Equal(got[i].Body, want[i].Body) {
			t.Fatalf("record %d body mismatch", i)
		}
	}
}

// TestFramerSkip pins Skip to the same record boundaries: skipping K
// records and framing the rest must agree with the written records from
// record K.
func TestFramerSkip(t *testing.T) {
	archive, want := framerArchive(t)
	const skip = 7
	f := NewFramer(bytes.NewReader(archive))
	for i := 0; i < skip; i++ {
		h, err := f.Skip()
		if err != nil {
			t.Fatal(err)
		}
		if h != want[i].Header {
			t.Fatalf("skip %d header = %+v, want %+v", i, h, want[i].Header)
		}
	}
	h, buf, err := f.NextInto(nil)
	if err != nil {
		t.Fatal(err)
	}
	if h != want[skip].Header || !bytes.Equal(buf, want[skip].Body) {
		t.Fatalf("record after skip mismatch: %+v", h)
	}
}

// TestFramerErrors pins the error semantics: ErrBadRecord for a
// truncated header, io.ErrUnexpectedEOF for a truncated body (via
// both NextInto and Skip), and buf rolled back on failure.
func TestFramerErrors(t *testing.T) {
	archive, _ := framerArchive(t)

	f := NewFramer(bytes.NewReader(archive[:len(archive)-5]))
	var err error
	buf := []byte("keep")
	for err == nil {
		_, buf, err = f.NextInto(buf)
	}
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated body: err = %v, want io.ErrUnexpectedEOF", err)
	}
	if !bytes.HasPrefix(buf, []byte("keep")) {
		t.Fatal("buf prefix clobbered on error")
	}

	f = NewFramer(bytes.NewReader(archive[:6]))
	if _, _, err := f.NextInto(nil); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("truncated header: err = %v, want ErrBadRecord", err)
	}

	f = NewFramer(bytes.NewReader(archive[:headerLen+3]))
	if _, err := f.Skip(); err != io.ErrUnexpectedEOF {
		t.Fatalf("skip truncated body: err = %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestFramerReset pins Reset reuse: re-framing the same archive through
// a reused Framer and arena yields identical frames with the arena's
// capacity retained.
func TestFramerReset(t *testing.T) {
	archive, want := framerArchive(t)
	f := NewFramer(bytes.NewReader(archive))
	var buf []byte
	count := 0
	for {
		_, nb, err := f.NextInto(buf[:0])
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		buf = nb
		count++
	}
	if count != len(want) {
		t.Fatalf("first pass framed %d, want %d", count, len(want))
	}

	f.Reset(bytes.NewReader(archive))
	count = 0
	for {
		h, nb, err := f.NextInto(buf[:0])
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		buf = nb
		if h != want[count].Header {
			t.Fatalf("second pass record %d header = %+v, want %+v", count, h, want[count].Header)
		}
		count++
	}
	if count != len(want) {
		t.Fatalf("second pass framed %d, want %d", count, len(want))
	}
}
