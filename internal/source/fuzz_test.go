package source

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"moas/internal/bgp"
	"moas/internal/mrt"
)

// mrtCorpusSeeds returns the committed fuzz seeds for FuzzMRTFramer: the
// update archive the File tests replay (updates, a keepalive, a state
// change, a withdrawal), each BGP message kind in a record of its own, a
// table dump the decoder skips, and framing damage. The same bytes live
// under testdata/fuzz/FuzzMRTFramer (TestGenerateMRTFuzzCorpus).
func mrtCorpusSeeds(t testing.TB) map[string][]byte {
	t.Helper()
	record := func(sub uint16, data []byte) []byte {
		var buf bytes.Buffer
		w := mrt.NewWriter(&buf)
		m := &mrt.BGP4MPMessage{PeerAS: 65001, LocalAS: 65000, Family: bgp.FamilyIPv4, Data: data}
		var err error
		if sub == mrt.SubtypeMessage {
			err = w.WriteBGP4MPMessage(86400, m)
		} else {
			err = w.WriteRecord(86400, mrt.TypeBGP4MP, sub, m.AppendBody(nil))
		}
		if err == nil {
			err = w.Flush()
		}
		if err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	upd := (&bgp.Update{
		Attrs: &bgp.Attrs{
			Origin:      bgp.OriginIGP,
			ASPath:      bgp.Path{{Type: bgp.SegSequence, ASes: []bgp.ASN{65001}}, {Type: bgp.SegSet, ASes: []bgp.ASN{7, 8}}},
			NextHop:     [4]byte{192, 0, 2, 1},
			Communities: []uint32{0x00010002},
		},
		NLRI: []bgp.Prefix{bgp.MustParsePrefix("10.0.0.0/8"), bgp.MustParsePrefix("10.1.0.0/16")},
	}).AppendWire(nil)
	open := (&bgp.Open{Version: 4, AS: 65001, HoldTime: 90, BGPID: [4]byte{10, 0, 0, 1}}).AppendWire(nil)
	notif := (&bgp.Notification{Code: 6}).AppendWire(nil)

	var td bytes.Buffer
	w := mrt.NewWriter(&td)
	if err := w.WriteTableDump(1, &mrt.TableDump{
		Prefix: bgp.MustParsePrefix("10.0.0.0/8"),
		PeerAS: 701,
		Attrs:  &bgp.Attrs{ASPath: bgp.Seq(701, 9), NextHop: [4]byte{1, 2, 3, 4}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	archive := testArchive(t)
	hugeLen := mrt.Header{Type: mrt.TypeBGP4MP, Subtype: mrt.SubtypeMessage, Length: 1 << 30}.AppendHeader(nil)
	return map[string][]byte{
		"archive":      archive,
		"update":       record(mrt.SubtypeMessage, upd),
		"open":         record(mrt.SubtypeMessage, open),
		"notification": record(mrt.SubtypeMessage, notif),
		"keepalive":    record(mrt.SubtypeMessage, bgp.AppendKeepalive(nil)),
		"bad-update":   record(mrt.SubtypeMessage, upd[:len(upd)-3]),
		"state-change": record(mrt.SubtypeStateChange, nil),
		"table-dump":   td.Bytes(),
		"truncated":    archive[:len(archive)-7],
		"short-header": archive[:5],
		"huge-length":  hugeLen,
		"empty":        {},
	}
}

// FuzzMRTFramer is the archive edge's robustness claim: any byte stream
// framed by mrt.Framer and decoded by the Decoder the replay and the
// File source share either decodes or fails with a classified error —
// io.EOF at a clean end, io.ErrUnexpectedEOF for a truncated body,
// mrt.ErrBadRecord for a bad frame or BGP4MP header, bgp.ErrBadMessage
// for a bad embedded message — and never panics.
func FuzzMRTFramer(f *testing.F) {
	for _, seed := range mrtCorpusSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := mrt.NewFramer(bytes.NewReader(data))
		dec := Decoder{Interner: new(bgp.AttrsInterner)}
		var body []byte
		var rec Record
		for {
			h, b, err := fr.NextInto(body[:0])
			body = b
			if err == nil {
				_, err = dec.Decode(&rec, h, body)
			}
			switch {
			case err == nil:
				continue
			case err == io.EOF, err == io.ErrUnexpectedEOF,
				errors.Is(err, mrt.ErrBadRecord), errors.Is(err, bgp.ErrBadMessage):
				return
			}
			t.Fatalf("unclassified error %q (%T)", err, err)
		}
	})
}

// TestGenerateMRTFuzzCorpus rewrites the committed seed corpus from the
// current encoders; a skip unless MOAS_GEN_FUZZ_CORPUS=1.
func TestGenerateMRTFuzzCorpus(t *testing.T) {
	if os.Getenv("MOAS_GEN_FUZZ_CORPUS") == "" {
		t.Skip("set MOAS_GEN_FUZZ_CORPUS=1 to regenerate testdata/fuzz")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzMRTFramer")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range mrtCorpusSeeds(t) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, "seed-"+name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
