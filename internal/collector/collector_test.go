package collector

import (
	"bytes"
	"compress/gzip"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"moas/internal/bgp"
	"moas/internal/core"
	"moas/internal/mrt"
	"moas/internal/rib"
	"moas/internal/scenario"
)

func smallScenario(t *testing.T) *scenario.Scenario {
	t.Helper()
	spec := scenario.TestSpec()
	spec.Topology.Stubs = 80
	spec.Plan.MeanPrefixesPerStub = 3
	spec.Anchors = []scenario.YearAnchor{{Date: spec.Start, Active: 15}, {Date: spec.End, Active: 20}}
	spec.Storms = nil
	sc, err := scenario.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestWriteReadRoundTripPreservesDetection is the end-to-end archive
// fidelity test: a day serialized to genuine MRT bytes and parsed back
// must yield the same conflicts, origins and classifications as the
// in-memory view — the property that makes the synthetic archive a valid
// stand-in for the NLANR/PCH files.
func TestWriteReadRoundTripPreservesDetection(t *testing.T) {
	sc := smallScenario(t)
	day := sc.ObservedDays[len(sc.ObservedDays)/2]

	var buf bytes.Buffer
	if err := WriteDay(&buf, sc, day); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty archive")
	}

	parsed, skipped, err := ReadDay(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 {
		t.Fatalf("a written day skipped records: %v", skipped)
	}
	direct := sc.TableViewAt(day)
	if parsed.Len() != direct.Len() {
		t.Fatalf("prefix counts differ: parsed %d, direct %d", parsed.Len(), direct.Len())
	}

	dDirect := core.NewDetector()
	obsDirect := dDirect.ObserveView(day, direct)
	dParsed := core.NewDetector()
	obsParsed := dParsed.ObserveView(day, parsed)

	if obsDirect.Count() != obsParsed.Count() {
		t.Fatalf("conflict counts differ: direct %d, parsed %d", obsDirect.Count(), obsParsed.Count())
	}
	if obsDirect.ExcludedASSet != obsParsed.ExcludedASSet {
		t.Fatalf("AS_SET exclusions differ: %d vs %d", obsDirect.ExcludedASSet, obsParsed.ExcludedASSet)
	}
	for i := range obsDirect.Conflicts {
		a, b := obsDirect.Conflicts[i], obsParsed.Conflicts[i]
		if a.Prefix != b.Prefix || a.Class != b.Class || len(a.Origins) != len(b.Origins) {
			t.Fatalf("conflict %d differs: %+v vs %+v", i, a, b)
		}
		for j := range a.Origins {
			if a.Origins[j] != b.Origins[j] {
				t.Fatalf("conflict %d origins differ", i)
			}
		}
	}
}

func TestWriteDayRecordShape(t *testing.T) {
	sc := smallScenario(t)
	day := sc.ObservedDays[0]
	var buf bytes.Buffer
	if err := WriteDay(&buf, sc, day); err != nil {
		t.Fatal(err)
	}
	wantTS := uint32(sc.DayDate(day).Unix())
	f := mrt.NewFramer(&buf)
	var body []byte
	records := 0
	var td mrt.TableDump
	for {
		h, b, err := f.NextInto(body[:0])
		if err != nil {
			break
		}
		body = b
		records++
		if h.Type != mrt.TypeTableDump {
			t.Fatalf("record type %v", h.Type)
		}
		if h.Timestamp != wantTS {
			t.Fatalf("timestamp %d, want %d", h.Timestamp, wantTS)
		}
		if err := td.DecodeTableDump(body, h.Subtype); err != nil {
			t.Fatal(err)
		}
		if td.Attrs.NextHop == ([4]byte{}) {
			t.Fatal("record without NEXT_HOP")
		}
	}
	view := sc.TableViewAt(day)
	wantRecords := 0
	view.Walk(func(_ bgp.Prefix, rs []rib.PeerRoute) bool { wantRecords += len(rs); return true })
	if records != wantRecords {
		t.Fatalf("records = %d, want %d", records, wantRecords)
	}
}

func TestReadDaySkipsUnknownRecords(t *testing.T) {
	var buf bytes.Buffer
	w := mrt.NewWriter(&buf)
	// A BGP4MP record the table reader must skip.
	if err := w.WriteBGP4MPStateChange(1, &mrt.BGP4MPStateChange{Family: bgp.FamilyIPv4, OldState: 1, NewState: 6}); err != nil {
		t.Fatal(err)
	}
	td := &mrt.TableDump{
		Prefix: bgp.MustParsePrefix("10.0.0.0/8"),
		PeerAS: 701,
		Attrs:  &bgp.Attrs{ASPath: bgp.Seq(701, 9), NextHop: [4]byte{1, 2, 3, 4}},
	}
	if err := w.WriteTableDump(2, td); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	view, skipped, err := ReadDay(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if view.Len() != 1 {
		t.Fatalf("view has %d prefixes", view.Len())
	}
	if want := (Skipped{"BGP4MP subtype 0": 1}); !reflect.DeepEqual(skipped, want) {
		t.Fatalf("skipped %v, want %v", skipped, want)
	}
}

// TestReadDayTableDumpV2: a TABLE_DUMP_V2 day — the PEER_INDEX_TABLE, a
// RIB_IPV4_UNICAST whose two peers see 10.0.0.0/8 from different origins,
// and an IPv6 RIB — reads as one prefix in MOAS conflict, each route
// under its peer's identity, and the IPv6 RIB's route is kept, as a
// TABLE_DUMP IPv6 entry's is: nothing is skipped.
func TestReadDayTableDumpV2(t *testing.T) {
	var buf bytes.Buffer
	w := mrt.NewWriter(&buf)
	index := &mrt.PeerIndexTable{ViewName: "rv", Peers: []mrt.Peer{
		{IP: [16]byte{10, 0, 0, 1}, Family: bgp.FamilyIPv4, AS: 701},
		{IP: [16]byte{10, 0, 0, 2}, Family: bgp.FamilyIPv4, AS: 3356, AS4: true},
	}}
	route := func(peer uint16, path ...bgp.ASN) mrt.RIBEntry {
		return mrt.RIBEntry{PeerIndex: peer, Attrs: &bgp.Attrs{ASPath: bgp.Seq(path...), NextHop: [4]byte{10, 0, 0, byte(peer + 1)}}}
	}
	p := bgp.MustParsePrefix("10.0.0.0/8")
	for _, write := range []func() error{
		func() error { return w.WritePeerIndexTable(1, index) },
		func() error {
			return w.WriteRIB(1, &mrt.RIB{Prefix: p, Entries: []mrt.RIBEntry{route(0, 701, 9), route(1, 3356, 7)}})
		},
		func() error {
			return w.WriteRIB(1, &mrt.RIB{Seq: 1, Prefix: bgp.MustParsePrefix("2001:db8::/32"), Entries: []mrt.RIBEntry{route(0, 701, 9)}})
		},
		w.Flush,
	} {
		if err := write(); err != nil {
			t.Fatal(err)
		}
	}
	view, skipped, err := ReadDay(&buf)
	if err != nil {
		t.Fatal(err)
	}
	obs := core.NewDetector().ObserveView(0, view)
	if view.Len() != 2 || obs.Count() != 1 || obs.Conflicts[0].Prefix != p {
		t.Fatalf("%d prefixes, conflicts %+v: want 10.0.0.0/8 in one MOAS conflict beside 2001:db8::/32", view.Len(), obs.Conflicts)
	}
	routes := view.Routes(p)
	if len(routes) != 2 || routes[0].PeerAS != 701 || routes[1].PeerAS != 3356 || routes[0].PeerID == routes[1].PeerID {
		t.Fatalf("routes %+v, want one per peer of the index", routes)
	}
	v6 := view.Routes(bgp.MustParsePrefix("2001:db8::/32"))
	if len(v6) != 1 || v6[0].PeerID != routes[0].PeerID || !v6[0].Route.Attrs.ASPath.Equal(bgp.Seq(701, 9)) {
		t.Fatalf("IPv6 routes %+v, want peer 0's 701 9", v6)
	}
	if len(skipped) != 0 {
		t.Fatalf("skipped %v, want nothing", skipped)
	}
}

func TestReadDayPeerIdentity(t *testing.T) {
	// Two routes from the same peer must get one peer ID; a third from a
	// different peer must get another.
	var buf bytes.Buffer
	w := mrt.NewWriter(&buf)
	mk := func(prefix string, peerAS bgp.ASN, peerIP byte) *mrt.TableDump {
		return &mrt.TableDump{
			Prefix: bgp.MustParsePrefix(prefix),
			PeerAS: peerAS,
			PeerIP: [16]byte{peerIP},
			Attrs:  &bgp.Attrs{ASPath: bgp.Seq(peerAS, 9), NextHop: [4]byte{1, 2, 3, 4}},
		}
	}
	for _, td := range []*mrt.TableDump{
		mk("10.0.0.0/8", 701, 1), mk("20.0.0.0/8", 701, 1), mk("10.0.0.0/8", 3356, 2),
	} {
		if err := w.WriteTableDump(1, td); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	view, _, err := ReadDay(&buf)
	if err != nil {
		t.Fatal(err)
	}
	routes := view.Routes(bgp.MustParsePrefix("10.0.0.0/8"))
	if len(routes) != 2 || routes[0].PeerID == routes[1].PeerID {
		t.Fatalf("peer identity wrong: %+v", routes)
	}
	r2 := view.Routes(bgp.MustParsePrefix("20.0.0.0/8"))
	if len(r2) != 1 || r2[0].PeerID != routes[0].PeerID {
		t.Fatalf("same-peer routes got different IDs")
	}
}

// TestReadDayGzip: a gzipped day on disk, opened through mrt.Open, reads
// to the same view as the plain bytes; a corrupt gzip header fails at the
// open.
func TestReadDayGzip(t *testing.T) {
	sc := smallScenario(t)
	day := sc.ObservedDays[0]
	var raw bytes.Buffer
	if err := WriteDay(&raw, sc, day); err != nil {
		t.Fatal(err)
	}
	var gzbuf bytes.Buffer
	gz := gzip.NewWriter(&gzbuf)
	if _, err := gz.Write(raw.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "day.mrt.gz")
	if err := os.WriteFile(path, gzbuf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	plain, _, err := ReadDay(bytes.NewReader(raw.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	f, err := mrt.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zipped, _, err := ReadDay(f)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Len() != zipped.Len() {
		t.Fatalf("gzip round trip lost prefixes: %d vs %d", plain.Len(), zipped.Len())
	}
	// Corrupt gzip header after magic bytes must error cleanly.
	corrupt := filepath.Join(dir, "corrupt.mrt.gz")
	if err := os.WriteFile(corrupt, []byte{0x1f, 0x8b, 0xff, 0xff}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := mrt.Open(corrupt); err == nil {
		t.Fatal("corrupt gzip accepted")
	}
}

// TestReadDayCorruptRecord: a record that does not decode fails the read
// with its own ordinal — here the third, after two good records of one
// prefix, which is one distinct prefix read so far.
func TestReadDayCorruptRecord(t *testing.T) {
	var buf bytes.Buffer
	w := mrt.NewWriter(&buf)
	for _, peerAS := range []bgp.ASN{701, 3356} {
		td := &mrt.TableDump{
			Prefix: bgp.MustParsePrefix("10.0.0.0/8"),
			PeerAS: peerAS,
			Attrs:  &bgp.Attrs{ASPath: bgp.Seq(peerAS, 9), NextHop: [4]byte{1, 2, 3, 4}},
		}
		if err := w.WriteTableDump(1, td); err != nil {
			t.Fatal(err)
		}
	}
	// Hand-write a TABLE_DUMP record with a garbage body.
	if err := w.WriteRecord(1, mrt.TypeTableDump, mrt.SubtypeAFIIPv4, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	_, _, err := ReadDay(&buf)
	if err == nil {
		t.Fatal("corrupt record accepted")
	}
	if !strings.HasPrefix(err.Error(), "collector: record 3: ") {
		t.Fatalf("error %q, want it to name record 3", err)
	}
}

func BenchmarkWriteDay(b *testing.B) {
	spec := scenario.TestSpec()
	spec.Topology.Stubs = 80
	spec.Plan.MeanPrefixesPerStub = 3
	spec.Storms = nil
	sc, err := scenario.Build(spec)
	if err != nil {
		b.Fatal(err)
	}
	day := sc.ObservedDays[0]
	var buf bytes.Buffer
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteDay(&buf, sc, day); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.Len()))
	}
}

func BenchmarkReadDay(b *testing.B) {
	spec := scenario.TestSpec()
	spec.Topology.Stubs = 80
	spec.Plan.MeanPrefixesPerStub = 3
	spec.Storms = nil
	sc, err := scenario.Build(spec)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteDay(&buf, sc, sc.ObservedDays[0]); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := ReadDay(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
