package mrt

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"

	"moas/internal/bgp"
)

func sampleAttrs(path string) *bgp.Attrs {
	return &bgp.Attrs{
		Origin:  bgp.OriginIGP,
		ASPath:  bgp.MustParsePath(path),
		NextHop: [4]byte{192, 0, 2, 1},
	}
}

func sampleTableDump() *TableDump {
	return &TableDump{
		ViewNum:        0,
		Seq:            42,
		Prefix:         bgp.MustParsePrefix("198.51.100.0/24"),
		Status:         1,
		OriginatedTime: 883612800,
		PeerIP:         [16]byte{192, 0, 2, 254},
		PeerAS:         6447,
		Attrs:          sampleAttrs("701 1239 8584"),
	}
}

func TestTableDumpRoundTrip(t *testing.T) {
	d := sampleTableDump()
	body := d.AppendBody(nil)
	var got TableDump
	if err := got.DecodeTableDump(body, d.Subtype()); err != nil {
		t.Fatal(err)
	}
	if got.ViewNum != d.ViewNum || got.Seq != d.Seq || got.Prefix != d.Prefix ||
		got.Status != d.Status || got.OriginatedTime != d.OriginatedTime ||
		got.PeerIP != d.PeerIP || got.PeerAS != d.PeerAS {
		t.Fatalf("fixed fields mismatch:\n got %+v\nwant %+v", got, d)
	}
	if !got.Attrs.Equal(d.Attrs) {
		t.Fatal("attrs mismatch")
	}
}

func TestTableDumpIPv6RoundTrip(t *testing.T) {
	d := sampleTableDump()
	d.Prefix = bgp.MustParsePrefix("2001:db8::/32")
	if d.Subtype() != SubtypeAFIIPv6 {
		t.Fatalf("subtype = %d", d.Subtype())
	}
	body := d.AppendBody(nil)
	var got TableDump
	if err := got.DecodeTableDump(body, SubtypeAFIIPv6); err != nil {
		t.Fatal(err)
	}
	if got.Prefix != d.Prefix {
		t.Fatalf("prefix mismatch: %s", got.Prefix)
	}
}

func TestTableDumpDecodeErrors(t *testing.T) {
	d := sampleTableDump()
	body := d.AppendBody(nil)

	if err := new(TableDump).DecodeTableDump(body[:10], SubtypeAFIIPv4); err == nil {
		t.Error("truncated body accepted")
	}
	if err := new(TableDump).DecodeTableDump(body, 9); err == nil {
		t.Error("bad AFI accepted")
	}
	// Corrupt the prefix length field (offset 4+4 = 8 for IPv4).
	bad := append([]byte(nil), body...)
	bad[8] = 60
	if err := new(TableDump).DecodeTableDump(bad, SubtypeAFIIPv4); err == nil {
		t.Error("prefix length 60 accepted for IPv4")
	}
	// Attribute length overrun.
	bad = append([]byte(nil), body...)
	bad[len(bad)-1] = 0xFF                     // not the attr len field, but corrupt something later
	short := append([]byte(nil), body[:22]...) // fixed part only, claims attrs
	if err := new(TableDump).DecodeTableDump(short, SubtypeAFIIPv4); err == nil {
		t.Error("attribute overrun accepted")
	}
}

func TestPeerIndexTableRoundTrip(t *testing.T) {
	pit := &PeerIndexTable{
		CollectorBGPID: [4]byte{198, 32, 162, 100},
		ViewName:       "route-views.oregon-ix.net",
		Peers: []Peer{
			{BGPID: [4]byte{10, 0, 0, 1}, IP: [16]byte{192, 0, 2, 1}, Family: bgp.FamilyIPv4, AS: 701},
			{BGPID: [4]byte{10, 0, 0, 2}, IP: [16]byte{0x20, 0x01}, Family: bgp.FamilyIPv6, AS: 3356, AS4: true},
			{BGPID: [4]byte{10, 0, 0, 3}, IP: [16]byte{192, 0, 2, 3}, Family: bgp.FamilyIPv4, AS: 196613, AS4: true},
		},
	}
	var got PeerIndexTable
	if err := got.DecodePeerIndexTable(pit.AppendBody(nil)); err != nil {
		t.Fatal(err)
	}
	if got.ViewName != pit.ViewName || got.CollectorBGPID != pit.CollectorBGPID {
		t.Fatalf("preamble mismatch: %+v", got)
	}
	if len(got.Peers) != 3 {
		t.Fatalf("peer count = %d", len(got.Peers))
	}
	for i := range pit.Peers {
		if got.Peers[i] != pit.Peers[i] {
			t.Errorf("peer %d mismatch:\n got %+v\nwant %+v", i, got.Peers[i], pit.Peers[i])
		}
	}
}

func TestPeerIndexTableDecodeErrors(t *testing.T) {
	if err := new(PeerIndexTable).DecodePeerIndexTable([]byte{1, 2, 3}); err == nil {
		t.Error("short table accepted")
	}
	// name length overrun
	bad := []byte{1, 2, 3, 4, 0xFF, 0xFF, 'x'}
	if err := new(PeerIndexTable).DecodePeerIndexTable(bad); err == nil {
		t.Error("name overrun accepted")
	}
	// claims one peer, provides none
	bad = []byte{1, 2, 3, 4, 0, 0, 0, 1}
	if err := new(PeerIndexTable).DecodePeerIndexTable(bad); err == nil {
		t.Error("missing peer accepted")
	}
}

func sampleRIB() *RIB {
	return &RIB{
		Seq:    7,
		Prefix: bgp.MustParsePrefix("203.0.113.0/24"),
		Entries: []RIBEntry{
			{PeerIndex: 0, OriginatedTime: 986515200, Attrs: sampleAttrs("701 15412")},
			{PeerIndex: 2, OriginatedTime: 986515201, Attrs: sampleAttrs("3561 15412")},
		},
	}
}

func TestRIBRoundTrip(t *testing.T) {
	r := sampleRIB()
	var got RIB
	if err := got.DecodeRIB(r.AppendBody(nil), r.Subtype()); err != nil {
		t.Fatal(err)
	}
	if got.Seq != r.Seq || got.Prefix != r.Prefix || len(got.Entries) != 2 {
		t.Fatalf("rib mismatch: %+v", got)
	}
	for i := range r.Entries {
		if got.Entries[i].PeerIndex != r.Entries[i].PeerIndex ||
			got.Entries[i].OriginatedTime != r.Entries[i].OriginatedTime ||
			!got.Entries[i].Attrs.Equal(r.Entries[i].Attrs) {
			t.Errorf("entry %d mismatch", i)
		}
	}
}

func TestRIBRoundTripPreservesASN4(t *testing.T) {
	// A 4-byte-only ASN must survive the TABLE_DUMP_V2 encoding.
	r := sampleRIB()
	r.Entries[0].Attrs.ASPath = bgp.Seq(3356, 196613)
	var got RIB
	if err := got.DecodeRIB(r.AppendBody(nil), r.Subtype()); err != nil {
		t.Fatal(err)
	}
	if origin, ok := got.Entries[0].Attrs.ASPath.Origin(); !ok || origin != 196613 {
		t.Fatalf("4-byte origin lost: %v %v", origin, ok)
	}
}

func TestRIBDecodeErrors(t *testing.T) {
	r := sampleRIB()
	body := r.AppendBody(nil)
	if err := new(RIB).DecodeRIB(body, 99); err == nil {
		t.Error("bad subtype accepted")
	}
	if err := new(RIB).DecodeRIB(body[:3], r.Subtype()); err == nil {
		t.Error("short body accepted")
	}
	if err := new(RIB).DecodeRIB(body[:7], r.Subtype()); err == nil {
		t.Error("missing entry count accepted")
	}
	// Claim more entries than present.
	bad := append([]byte(nil), body...)
	// entry count sits after seq(4) + NLRI(1+3 for /24)
	bad[4+4+1] = 0xFF
	if err := new(RIB).DecodeRIB(bad, r.Subtype()); err == nil {
		t.Error("entry count overrun accepted")
	}
}

func TestBGP4MPMessageRoundTrip(t *testing.T) {
	upd := &bgp.Update{
		Attrs: sampleAttrs("701 8584"),
		NLRI:  []bgp.Prefix{bgp.MustParsePrefix("10.0.0.0/8")},
	}
	m := &BGP4MPMessage{
		PeerAS:  701,
		LocalAS: 6447,
		IfIndex: 1,
		Family:  bgp.FamilyIPv4,
		PeerIP:  [16]byte{192, 0, 2, 1},
		LocalIP: [16]byte{192, 0, 2, 254},
		Data:    upd.AppendWire(nil),
	}
	var got BGP4MPMessage
	if err := got.DecodeBGP4MPMessageBorrow(m.AppendBody(nil)); err != nil {
		t.Fatal(err)
	}
	if got.PeerAS != 701 || got.LocalAS != 6447 || got.PeerIP != m.PeerIP {
		t.Fatalf("context mismatch: %+v", got)
	}
	msg, err := got.Message()
	if err != nil {
		t.Fatal(err)
	}
	u, ok := msg.(*bgp.Update)
	if !ok || len(u.NLRI) != 1 || u.NLRI[0] != upd.NLRI[0] {
		t.Fatalf("embedded update mismatch: %+v", msg)
	}
}

func TestBGP4MPStateChangeRoundTrip(t *testing.T) {
	m := &BGP4MPStateChange{
		PeerAS: 701, LocalAS: 6447, IfIndex: 2, Family: bgp.FamilyIPv4,
		PeerIP: [16]byte{192, 0, 2, 1}, LocalIP: [16]byte{192, 0, 2, 254},
		OldState: StateOpenConfirm, NewState: StateEstablished,
	}
	var got BGP4MPStateChange
	if err := got.DecodeBGP4MPStateChange(m.AppendBody(nil)); err != nil {
		t.Fatal(err)
	}
	if got != *m {
		t.Fatalf("state change mismatch:\n got %+v\nwant %+v", got, *m)
	}
}

func TestBGP4MPDecodeErrors(t *testing.T) {
	if err := new(BGP4MPMessage).DecodeBGP4MPMessageBorrow([]byte{1}); err == nil {
		t.Error("short message accepted")
	}
	if err := new(BGP4MPStateChange).DecodeBGP4MPStateChange([]byte{1}); err == nil {
		t.Error("short state change accepted")
	}
	// bad AFI
	b := []byte{0, 1, 0, 2, 0, 0, 0, 9, 1, 2, 3, 4, 5, 6, 7, 8}
	if err := new(BGP4MPMessage).DecodeBGP4MPMessageBorrow(b); err == nil {
		t.Error("bad AFI accepted")
	}
}

func TestReaderWriterStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)

	if err := w.WriteTableDump(100, sampleTableDump()); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRIB(200, sampleRIB()); err != nil {
		t.Fatal(err)
	}
	pit := &PeerIndexTable{ViewName: "v"}
	if err := w.WritePeerIndexTable(150, pit); err != nil {
		t.Fatal(err)
	}
	sc := &BGP4MPStateChange{Family: bgp.FamilyIPv4, OldState: 1, NewState: 6}
	if err := w.WriteBGP4MPStateChange(300, sc); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	f := NewFramer(&buf)
	var body []byte
	var kinds []string
	var stamps []uint32
	for {
		h, b, err := f.NextInto(body[:0])
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		body = b
		stamps = append(stamps, h.Timestamp)
		dec, err := DecodeRecord(h, body)
		if err != nil {
			t.Fatal(err)
		}
		switch dec.(type) {
		case *TableDump:
			kinds = append(kinds, "td")
		case *RIB:
			kinds = append(kinds, "rib")
		case *PeerIndexTable:
			kinds = append(kinds, "pit")
		case *BGP4MPStateChange:
			kinds = append(kinds, "sc")
		default:
			t.Fatalf("unexpected type %T", dec)
		}
	}
	wantKinds := []string{"td", "rib", "pit", "sc"}
	wantStamps := []uint32{100, 200, 150, 300}
	for i := range wantKinds {
		if i >= len(kinds) || kinds[i] != wantKinds[i] || stamps[i] != wantStamps[i] {
			t.Fatalf("stream = %v @ %v, want %v @ %v", kinds, stamps, wantKinds, wantStamps)
		}
	}
}

func TestReaderTruncation(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteTableDump(1, sampleTableDump()); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Truncated header: bad record, not clean EOF.
	f := NewFramer(bytes.NewReader(full[:6]))
	if _, _, err := f.NextInto(nil); !errors.Is(err, ErrBadRecord) {
		t.Errorf("truncated header: err = %v, want ErrBadRecord", err)
	}
	// Truncated body.
	f = NewFramer(bytes.NewReader(full[:len(full)-3]))
	if _, _, err := f.NextInto(nil); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated body: err = %v, want ErrUnexpectedEOF", err)
	}
	// Empty stream: clean EOF.
	f = NewFramer(bytes.NewReader(nil))
	if _, _, err := f.NextInto(nil); err != io.EOF {
		t.Errorf("empty stream: err = %v, want io.EOF", err)
	}
}

func TestReaderRejectsHugeLength(t *testing.T) {
	h := Header{Timestamp: 1, Type: TypeTableDump, Subtype: 1, Length: maxRecordLen + 1}
	f := NewFramer(bytes.NewReader(h.AppendHeader(nil)))
	if _, _, err := f.NextInto(nil); !errors.Is(err, ErrBadRecord) {
		t.Errorf("huge length: err = %v, want ErrBadRecord", err)
	}
}

func TestDecodeRecordUnknown(t *testing.T) {
	_, err := DecodeRecord(Header{Type: 99}, nil)
	if !errors.Is(err, ErrUnknownRecord) {
		t.Errorf("unknown type: err = %v", err)
	}
	_, err = DecodeRecord(Header{Type: TypeTableDumpV2, Subtype: 77}, nil)
	if !errors.Is(err, ErrUnknownRecord) {
		t.Errorf("unknown subtype: err = %v", err)
	}
}

func TestQuickTableDumpRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for i := 0; i < 1000; i++ {
		d := &TableDump{
			ViewNum:        uint16(r.Intn(4)),
			Seq:            uint16(r.Intn(65536)),
			Prefix:         bgp.PrefixFromUint32(r.Uint32(), uint8(r.Intn(33))),
			Status:         1,
			OriginatedTime: r.Uint32(),
			PeerAS:         bgp.ASN(r.Intn(65536)),
			Attrs: &bgp.Attrs{
				Origin:  bgp.Origin(r.Intn(3)),
				ASPath:  randSeqPath(r),
				NextHop: [4]byte{byte(r.Intn(256)), 2, 3, 4},
			},
		}
		var got TableDump
		if err := got.DecodeTableDump(d.AppendBody(nil), d.Subtype()); err != nil {
			t.Fatal(err)
		}
		if got.Prefix != d.Prefix || got.PeerAS != d.PeerAS || !got.Attrs.ASPath.Equal(d.Attrs.ASPath) {
			t.Fatalf("round trip mismatch at %d", i)
		}
	}
}

func randSeqPath(r *rand.Rand) bgp.Path {
	n := 1 + r.Intn(5)
	ases := make([]bgp.ASN, n)
	for i := range ases {
		ases[i] = bgp.ASN(1 + r.Intn(65534))
	}
	return bgp.Path{{Type: bgp.SegSequence, ASes: ases}}
}

func BenchmarkTableDumpAppendBody(b *testing.B) {
	d := sampleTableDump()
	buf := make([]byte, 0, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = d.AppendBody(buf[:0])
	}
}

func BenchmarkTableDumpDecode(b *testing.B) {
	d := sampleTableDump()
	body := d.AppendBody(nil)
	var got TableDump
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := got.DecodeTableDump(body, d.Subtype()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFramerThroughput(b *testing.B) {
	// A 10k-record dump, read end to end per iteration.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	d := sampleTableDump()
	for i := 0; i < 10000; i++ {
		d.Seq = uint16(i)
		if err := w.WriteTableDump(1, d); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	var body []byte
	for i := 0; i < b.N; i++ {
		f := NewFramer(bytes.NewReader(data))
		n := 0
		for {
			h, nb, err := f.NextInto(body[:0])
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			body = nb
			var td TableDump
			if err := td.DecodeTableDump(body, h.Subtype); err != nil {
				b.Fatal(err)
			}
			n++
		}
		if n != 10000 {
			b.Fatalf("read %d records", n)
		}
	}
}
