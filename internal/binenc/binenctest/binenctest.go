// Package binenctest holds the check the binary codecs' tests share: an
// image with one junk byte wrapped into one of its frames, or left after
// its last, must be refused.
package binenctest

import (
	"testing"

	"moas/internal/binenc"
)

// Case is one padded copy of an image.
type Case struct {
	Name string // the frame the junk byte sits in, or "trailer"
	Data []byte
}

// Padded takes an image whose frames run back to back from offset off to
// its end, named in order by frames, and returns one copy per frame with
// a junk byte appended to that frame's payload (its length prefix grown
// to match), then a copy with the junk byte after the last frame.
func Padded(tb testing.TB, data []byte, off int, frames ...string) []Case {
	tb.Helper()
	var payloads [][]byte
	r := binenc.NewReader(data[off:])
	for r.Len() > 0 {
		fr := r.Frame()
		payloads = append(payloads, fr.Bytes(fr.Len()))
	}
	if err := r.End(); err != nil || len(payloads) != len(frames) {
		tb.Fatalf("image from offset %d: %d frames (%v), want %d (%v)", off, len(payloads), err, len(frames), frames)
	}
	var cases []Case
	for i, name := range frames {
		out := append([]byte(nil), data[:off]...)
		for j, p := range payloads {
			if j == i {
				p = append(append([]byte(nil), p...), 0)
			}
			out = binenc.AppendFrame(out, p)
		}
		cases = append(cases, Case{name, out})
	}
	trailer := append(append([]byte(nil), data...), 0)
	return append(cases, Case{"trailer", trailer})
}
