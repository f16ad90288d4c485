package bgp

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// updateCorpusSeeds returns the committed fuzz seeds for FuzzUpdateBody:
// UPDATE bodies (the message without its 19-byte header) announcing,
// withdrawing, both, with every attribute this package decodes, with an
// unknown optional attribute it skips, and damaged. The same bytes live
// under testdata/fuzz/FuzzUpdateBody (TestGenerateUpdateFuzzCorpus).
func updateCorpusSeeds() map[string][]byte {
	body := func(u *Update) []byte { return u.AppendWire(nil)[headerLen:] }
	p8, p16 := MustParsePrefix("10.0.0.0/8"), MustParsePrefix("10.1.128.0/17")
	full := &Attrs{
		Origin:          OriginEGP,
		ASPath:          Path{{Type: SegSequence, ASes: []ASN{701, 1239}}, {Type: SegSet, ASes: []ASN{7, 8}}},
		NextHop:         [4]byte{192, 0, 2, 1},
		MED:             5,
		HasMED:          true,
		LocalPref:       100,
		HasLocalPref:    true,
		AtomicAggregate: true,
		Aggregator:      &Aggregator{AS: 1239, Addr: [4]byte{10, 0, 0, 1}},
		Communities:     []uint32{0x00010002, 0xFFFF0000},
	}
	announce := body(&Update{Attrs: full, NLRI: []Prefix{p8, p16}})
	// An unknown optional transitive attribute (code 99) appended to the
	// block: skipped on decode, absent from the re-encoding.
	unknown := body(&Update{Attrs: &Attrs{ASPath: Seq(65001), NextHop: [4]byte{1, 2, 3, 4}}})
	attrLen := int(unknown[2])<<8 | int(unknown[3])
	unknown = slices.Insert(unknown, 4+attrLen, 0xC0, 99, 2, 0xAB, 0xCD)
	attrLen += 5
	unknown[2], unknown[3] = byte(attrLen>>8), byte(attrLen)
	return map[string][]byte{
		"announce":      announce,
		"withdraw":      body(&Update{Withdrawn: []Prefix{p8, MustParsePrefix("0.0.0.0/0")}}),
		"both":          body(&Update{Withdrawn: []Prefix{p16}, Attrs: &Attrs{ASPath: Seq(65001, 65002), NextHop: [4]byte{1, 2, 3, 4}}, NLRI: []Prefix{p8}}),
		"unknown-attr":  unknown,
		"truncated":     announce[:len(announce)-2],
		"empty-update":  {0, 0, 0, 0},
		"bad-wd-length": {0xFF, 0xFF, 0, 0},
		"empty":         {},
	}
}

// FuzzUpdateBody fuzzes the UPDATE body decoder with and without an
// interner. Neither may panic; both must agree on the error or on the
// update; and a decoded update must survive AppendWire and a second
// decode unchanged. Every error is a bad message (ErrBadMessage).
func FuzzUpdateBody(f *testing.F) {
	for _, seed := range updateCorpusSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var plain, interned, again Update
		err := DecodeUpdateBodyInto(&plain, data, nil)
		ierr := DecodeUpdateBodyInto(&interned, data, new(AttrsInterner))
		if (err == nil) != (ierr == nil) {
			t.Fatalf("decode error %v, with an interner %v", err, ierr)
		}
		if err != nil {
			if !errors.Is(err, ErrBadMessage) || !errors.Is(ierr, ErrBadMessage) {
				t.Fatalf("errors %q, %q do not wrap ErrBadMessage", err, ierr)
			}
			return
		}
		if !updatesEqual(&plain, &interned) {
			t.Fatalf("decode %+v, with an interner %+v", plain, interned)
		}
		wire := plain.AppendWire(nil)
		if err := DecodeUpdateBodyInto(&again, wire[headerLen:], nil); err != nil {
			t.Fatalf("re-decode of %x: %v", wire, err)
		}
		if !updatesEqual(&plain, &again) {
			t.Fatalf("round trip changed the update: %+v, then %+v", plain, again)
		}
	})
}

func updatesEqual(a, b *Update) bool {
	return slices.Equal(a.Withdrawn, b.Withdrawn) && slices.Equal(a.NLRI, b.NLRI) && a.Attrs.Equal(b.Attrs)
}

// TestGenerateUpdateFuzzCorpus rewrites the committed seed corpus from
// the current encoders; a skip unless MOAS_GEN_FUZZ_CORPUS=1.
func TestGenerateUpdateFuzzCorpus(t *testing.T) {
	if os.Getenv("MOAS_GEN_FUZZ_CORPUS") == "" {
		t.Skip("set MOAS_GEN_FUZZ_CORPUS=1 to regenerate testdata/fuzz")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzUpdateBody")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range updateCorpusSeeds() {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, "seed-"+name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
