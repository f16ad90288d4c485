package mrt

import (
	"bytes"
	"math/rand"
	"testing"
)

// Robustness: the MRT layer parses whatever an archive contains; random
// and corrupted record bodies must produce errors, never panics, and the
// framer must always terminate.

func TestDecodeRecordNeverPanicsOnRandomBodies(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	types := []Type{TypeTableDump, TypeTableDumpV2, TypeBGP4MP, Type(99)}
	subs := []uint16{0, 1, 2, 4, 9}
	for i := 0; i < 30000; i++ {
		body := make([]byte, r.Intn(80))
		for j := range body {
			body[j] = byte(r.Intn(256))
		}
		h := Header{
			Type:    types[r.Intn(len(types))],
			Subtype: subs[r.Intn(len(subs))],
			Length:  uint32(len(body)),
		}
		_, _ = DecodeRecord(h, body)
	}
}

func TestReaderTerminatesOnGarbageStreams(t *testing.T) {
	r := rand.New(rand.NewSource(103))
	for i := 0; i < 500; i++ {
		garbage := make([]byte, r.Intn(4096))
		for j := range garbage {
			garbage[j] = byte(r.Intn(256))
		}
		f := NewFramer(bytes.NewReader(garbage))
		var body []byte
		for steps := 0; steps < 10000; steps++ {
			var err error
			_, body, err = f.NextInto(body[:0])
			if err != nil {
				break // io.EOF, ErrBadRecord or ErrUnexpectedEOF: all fine
			}
		}
	}
}

func TestReaderMutatedValidStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < 20; i++ {
		d := sampleTableDump()
		d.Seq = uint16(i)
		if err := w.WriteTableDump(uint32(i), d); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	r := rand.New(rand.NewSource(107))
	for i := 0; i < 2000; i++ {
		b := append([]byte(nil), valid...)
		for j := 1 + r.Intn(8); j > 0; j-- {
			b[r.Intn(len(b))] = byte(r.Intn(256))
		}
		f := NewFramer(bytes.NewReader(b))
		var body []byte
		for {
			h, nb, err := f.NextInto(body[:0])
			if err != nil {
				break
			}
			body = nb
			_, _ = DecodeRecord(h, body) // must not panic
		}
	}
}
