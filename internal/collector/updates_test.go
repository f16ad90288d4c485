package collector

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"testing"

	"moas/internal/bgp"
	"moas/internal/core"
	"moas/internal/mrt"
	"moas/internal/rib"
	"moas/internal/scenario"
)

// adjRIBIn is one peer's advertised table as the replay reference sees
// it: the routes currently announced and not withdrawn.
type adjRIBIn struct {
	peerID uint16
	peerAS bgp.ASN
	routes map[bgp.Prefix]bgp.Route
}

func newAdjRIBIn(peerID uint16, peerAS bgp.ASN) *adjRIBIn {
	return &adjRIBIn{peerID: peerID, peerAS: peerAS, routes: make(map[bgp.Prefix]bgp.Route)}
}

// update applies a BGP UPDATE: withdrawals then announcements, as on the
// wire.
func (a *adjRIBIn) update(u *bgp.Update) {
	for _, p := range u.Withdrawn {
		delete(a.routes, p)
	}
	if u.Attrs == nil {
		return
	}
	for _, p := range u.NLRI {
		a.routes[p] = bgp.Route{Prefix: p, Attrs: u.Attrs}
	}
}

// viewFromPeers assembles a view from per-peer tables.
func viewFromPeers(peers []*adjRIBIn) *rib.TableView {
	v := rib.NewTableView()
	for _, a := range peers {
		for _, r := range a.routes {
			v.Add(rib.PeerRoute{PeerID: a.peerID, PeerAS: a.peerAS, Route: r})
		}
	}
	return v
}

// TestReplayAdjRIBInUpdateFlow checks the replay reference's per-peer
// table: an update withdraws before it announces, and withdrawing an
// unknown prefix changes nothing.
func TestReplayAdjRIBInUpdateFlow(t *testing.T) {
	pfx := bgp.MustParsePrefix
	a := newAdjRIBIn(1, 701)
	a.update(&bgp.Update{
		Attrs: &bgp.Attrs{ASPath: bgp.MustParsePath("701 9"), NextHop: [4]byte{1, 1, 1, 1}},
		NLRI:  []bgp.Prefix{pfx("10.0.0.0/8"), pfx("10.1.0.0/16")},
	})
	if len(a.routes) != 2 {
		t.Fatalf("%d routes, want 2", len(a.routes))
	}
	a.update(&bgp.Update{Withdrawn: []bgp.Prefix{pfx("10.0.0.0/8")}})
	if _, ok := a.routes[pfx("10.0.0.0/8")]; ok || len(a.routes) != 1 {
		t.Fatalf("after the withdrawal: %v", a.routes)
	}
	if r, ok := a.routes[pfx("10.1.0.0/16")]; !ok || r.Prefix != pfx("10.1.0.0/16") {
		t.Error("surviving prefix lost")
	}
	a.update(&bgp.Update{Withdrawn: []bgp.Prefix{pfx("99.0.0.0/8")}})
	if len(a.routes) != 1 {
		t.Error("withdrawing an unknown prefix changed the table")
	}
}

// TestReplayAdjRIBInAnnounceReplace checks that a re-announcement
// replaces the peer's route, also when the same update withdraws the
// prefix first.
func TestReplayAdjRIBInAnnounceReplace(t *testing.T) {
	pfx := bgp.MustParsePrefix
	a := newAdjRIBIn(1, 701)
	a.update(&bgp.Update{
		Attrs: &bgp.Attrs{ASPath: bgp.MustParsePath("701 9"), NextHop: [4]byte{1, 1, 1, 1}},
		NLRI:  []bgp.Prefix{pfx("10.0.0.0/8")},
	})
	a.update(&bgp.Update{
		Attrs: &bgp.Attrs{ASPath: bgp.MustParsePath("701 1239 9")},
		NLRI:  []bgp.Prefix{pfx("10.0.0.0/8")},
	})
	if r := a.routes[pfx("10.0.0.0/8")]; len(a.routes) != 1 || r.Path().String() != "701 1239 9" {
		t.Errorf("replacement announce did not take effect: %v", a.routes)
	}
	a.update(&bgp.Update{
		Attrs:     &bgp.Attrs{ASPath: bgp.MustParsePath("701 3356 9")},
		Withdrawn: []bgp.Prefix{pfx("10.0.0.0/8")},
		NLRI:      []bgp.Prefix{pfx("10.0.0.0/8")},
	})
	if r := a.routes[pfx("10.0.0.0/8")]; len(a.routes) != 1 || r.Path().String() != "701 3356 9" {
		t.Errorf("withdraw-then-announce in one update lost the route: %v", a.routes)
	}
}

// replayUpdates applies a BGP4MP_MESSAGE stream to per-peer tables seeded
// from a base view and returns the resulting view. Peers are identified by
// (peer IP, peer AS), matching WriteViewUpdates' encoding. Records other
// than BGP4MP_MESSAGE are skipped; non-UPDATE BGP messages are ignored, as
// a table reconstruction must.
func replayUpdates(base *rib.TableView, r io.Reader) (*rib.TableView, error) {
	type peerKey struct {
		ip [16]byte
		as bgp.ASN
	}
	ribs := map[peerKey]*adjRIBIn{}
	// Seed from the base view.
	base.Walk(func(p bgp.Prefix, routes []rib.PeerRoute) bool {
		for _, pr := range routes {
			key := peerKey{ip: peerIPFor(pr.PeerID), as: pr.PeerAS}
			a := ribs[key]
			if a == nil {
				a = newAdjRIBIn(pr.PeerID, pr.PeerAS)
				ribs[key] = a
			}
			a.routes[pr.Route.Prefix] = pr.Route
		}
		return true
	})

	fr := mrt.NewFramer(r)
	var body []byte
	var msg mrt.BGP4MPMessage
	for {
		h, b, err := fr.NextInto(body[:0])
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		body = b
		if !h.CarriesMessage() {
			continue
		}
		if err := msg.DecodeBGP4MPMessageBorrow(body); err != nil {
			return nil, err
		}
		decoded, err := msg.Message()
		if err != nil {
			return nil, fmt.Errorf("collector: embedded message: %w", err)
		}
		upd, ok := decoded.(*bgp.Update)
		if !ok {
			continue
		}
		key := peerKey{ip: msg.PeerIP, as: msg.PeerAS}
		a := ribs[key]
		if a == nil {
			a = newAdjRIBIn(uint16(len(ribs)), msg.PeerAS)
			ribs[key] = a
		}
		a.update(upd)
	}

	var peers []*adjRIBIn
	for _, a := range ribs {
		peers = append(peers, a)
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i].peerID < peers[j].peerID })
	return viewFromPeers(peers), nil
}

// viewsEqual compares two table views route-for-route.
func viewsEqual(t *testing.T, a, b *rib.TableView) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("prefix counts differ: %d vs %d", a.Len(), b.Len())
	}
	for _, p := range a.Prefixes() {
		ra := append([]rib.PeerRoute(nil), a.Routes(p)...)
		rb := append([]rib.PeerRoute(nil), b.Routes(p)...)
		if len(ra) != len(rb) {
			t.Fatalf("%s: route counts differ: %d vs %d", p, len(ra), len(rb))
		}
		sort.Slice(ra, func(i, j int) bool { return ra[i].PeerAS < ra[j].PeerAS })
		sort.Slice(rb, func(i, j int) bool { return rb[i].PeerAS < rb[j].PeerAS })
		for i := range ra {
			if ra[i].PeerAS != rb[i].PeerAS {
				t.Fatalf("%s: peer sets differ", p)
			}
			if !ra[i].Route.Attrs.Equal(rb[i].Route.Attrs) {
				t.Fatalf("%s peer %s: attrs differ:\n a=[%s]\n b=[%s]",
					p, ra[i].PeerAS, ra[i].Route.Attrs.ASPath, rb[i].Route.Attrs.ASPath)
			}
		}
	}
}

// stormScenario is smallScenario but with the scripted storm kept, so the
// replay test sees a day pair with massive churn.
func stormScenario(t *testing.T) *scenario.Scenario {
	t.Helper()
	spec := scenario.TestSpec()
	spec.Topology.Stubs = 80
	spec.Plan.MeanPrefixesPerStub = 4
	spec.Anchors = []scenario.YearAnchor{{Date: spec.Start, Active: 15}, {Date: spec.End, Active: 20}}
	spec.Storms = []scenario.Storm{{Date: spec.Start.AddDate(0, 0, 20), Attacker: 8584, DayCounts: []int{40, 15}}}
	sc, err := scenario.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestUpdateReplayReconstructsNextDay is the snapshot/update consistency
// property: snapshot(d) + derived updates(d→d') == snapshot(d').
func TestUpdateReplayReconstructsNextDay(t *testing.T) {
	sc := stormScenario(t)
	// Pick a day pair spanning the storm start so real churn occurs.
	var d1, d2 int
	stormDay := sc.Spec.DayIndex(sc.Spec.Storms[0].Date)
	for i := 0; i+1 < len(sc.ObservedDays); i++ {
		if sc.ObservedDays[i+1] >= stormDay {
			d1, d2 = sc.ObservedDays[i], sc.ObservedDays[i+1]
			break
		}
	}
	if d2 == 0 {
		d1, d2 = sc.ObservedDays[0], sc.ObservedDays[1]
	}

	var buf bytes.Buffer
	if err := WriteViewUpdates(&buf, sc.TableViewAt(d1), sc.TableViewAt(d2), sc.DayStamp(d2)); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("no updates derived across storm boundary")
	}

	replayed, err := replayUpdates(sc.TableViewAt(d1), &buf)
	if err != nil {
		t.Fatal(err)
	}
	viewsEqual(t, sc.TableViewAt(d2), replayed)

	// And detection over the replayed view matches the direct view.
	want := core.NewDetector().ObserveView(d2, sc.TableViewAt(d2))
	got := core.NewDetector().ObserveView(d2, replayed)
	if want.Count() != got.Count() {
		t.Fatalf("conflicts differ after replay: %d vs %d", want.Count(), got.Count())
	}
}

func TestUpdateReplayQuietDay(t *testing.T) {
	sc := smallScenario(t)
	// Consecutive days without storm churn still replay correctly (small
	// background churn from episode starts/ends is expected).
	d1, d2 := sc.ObservedDays[2], sc.ObservedDays[3]
	var buf bytes.Buffer
	if err := WriteViewUpdates(&buf, sc.TableViewAt(d1), sc.TableViewAt(d2), sc.DayStamp(d2)); err != nil {
		t.Fatal(err)
	}
	replayed, err := replayUpdates(sc.TableViewAt(d1), &buf)
	if err != nil {
		t.Fatal(err)
	}
	viewsEqual(t, sc.TableViewAt(d2), replayed)
}

func TestDiffViewsShape(t *testing.T) {
	mkView := func(entries map[string]map[string]string) *rib.TableView {
		// prefix → peerAS(string) → path
		v := rib.NewTableView()
		for prefix, peers := range entries {
			for peer, path := range peers {
				as := bgp.MustParsePath(peer)
				asn, _ := as.Origin()
				v.Add(rib.PeerRoute{
					PeerID: uint16(asn), PeerAS: asn,
					Route: bgp.Route{
						Prefix: bgp.MustParsePrefix(prefix),
						Attrs:  &bgp.Attrs{ASPath: bgp.MustParsePath(path)},
					},
				})
			}
		}
		return v
	}
	oldV := mkView(map[string]map[string]string{
		"10.0.0.0/8": {"701": "701 9", "1239": "1239 9"},
		"20.0.0.0/8": {"701": "701 20"},
		"30.0.0.0/8": {"701": "701 30"},
	})
	newV := mkView(map[string]map[string]string{
		"10.0.0.0/8": {"701": "701 9", "1239": "1239 8 9"}, // 1239 changes path
		"20.0.0.0/8": {"701": "701 20"},                    // unchanged
		"40.0.0.0/8": {"701": "701 40"},                    // new at 701
		// 30.0.0.0/8 withdrawn at 701
	})
	deltas := diffViews(oldV, newV)
	if len(deltas) != 2 {
		t.Fatalf("deltas = %d, want 2 peers", len(deltas))
	}
	for _, d := range deltas {
		switch d.peerAS {
		case 701:
			if len(d.withdrawn) != 1 || d.withdrawn[0] != bgp.MustParsePrefix("30.0.0.0/8") {
				t.Fatalf("701 withdrawals = %v", d.withdrawn)
			}
			if len(d.announced) != 1 || d.announced[0].Prefix != bgp.MustParsePrefix("40.0.0.0/8") {
				t.Fatalf("701 announcements = %v", d.announced)
			}
		case 1239:
			if len(d.withdrawn) != 0 || len(d.announced) != 1 {
				t.Fatalf("1239 delta = %+v", d)
			}
		default:
			t.Fatalf("unexpected peer %v", d.peerAS)
		}
	}
}

func TestWriteViewUpdatesBatching(t *testing.T) {
	// 450 withdrawals must split into ceil(450/200)=3 UPDATE messages.
	oldV := rib.NewTableView()
	newV := rib.NewTableView()
	attrs := &bgp.Attrs{ASPath: bgp.Seq(701, 9), NextHop: [4]byte{1, 2, 3, 4}}
	for i := 0; i < 450; i++ {
		p := bgp.PrefixFromUint32(uint32(0x0A000000+i*256), 24)
		oldV.Add(rib.PeerRoute{PeerID: 1, PeerAS: 701, Route: bgp.Route{Prefix: p, Attrs: attrs}})
	}
	var buf bytes.Buffer
	if err := WriteViewUpdates(&buf, oldV, newV, 1); err != nil {
		t.Fatal(err)
	}
	f := mrt.NewFramer(&buf)
	var body []byte
	msgs := 0
	var m mrt.BGP4MPMessage
	for {
		_, b, err := f.NextInto(body[:0])
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		body = b
		if err := m.DecodeBGP4MPMessageBorrow(body); err != nil {
			t.Fatal(err)
		}
		decoded, err := m.Message()
		if err != nil {
			t.Fatal(err)
		}
		upd := decoded.(*bgp.Update)
		if len(upd.Withdrawn) > maxNLRIPerUpdate {
			t.Fatalf("update with %d withdrawals exceeds batch cap", len(upd.Withdrawn))
		}
		msgs++
	}
	if msgs != 3 {
		t.Fatalf("messages = %d, want 3", msgs)
	}
}

func TestReplayUpdatesSkipsForeignRecords(t *testing.T) {
	var buf bytes.Buffer
	w := mrt.NewWriter(&buf)
	if err := w.WriteBGP4MPStateChange(1, &mrt.BGP4MPStateChange{Family: bgp.FamilyIPv4, OldState: 1, NewState: 6}); err != nil {
		t.Fatal(err)
	}
	// A keepalive embedded in BGP4MP_MESSAGE: ignored.
	ka := &mrt.BGP4MPMessage{PeerAS: 701, LocalAS: LocalAS, Family: bgp.FamilyIPv4, Data: bgp.AppendKeepalive(nil)}
	if err := w.WriteBGP4MPMessage(2, ka); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	base := rib.NewTableView()
	base.Add(rib.PeerRoute{PeerID: 0, PeerAS: 701, Route: bgp.Route{
		Prefix: bgp.MustParsePrefix("10.0.0.0/8"),
		Attrs:  &bgp.Attrs{ASPath: bgp.Seq(701, 9)},
	}})
	out, err := replayUpdates(base, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 {
		t.Fatalf("replayed view has %d prefixes", out.Len())
	}
}

func BenchmarkWriteUpdates(b *testing.B) {
	spec := scenario.TestSpec()
	spec.Topology.Stubs = 80
	spec.Plan.MeanPrefixesPerStub = 4
	sc, err := scenario.Build(spec)
	if err != nil {
		b.Fatal(err)
	}
	stormDay := spec.DayIndex(spec.Storms[0].Date)
	d1, d2 := stormDay-1, stormDay
	var buf bytes.Buffer
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteViewUpdates(&buf, sc.TableViewAt(d1), sc.TableViewAt(d2), sc.DayStamp(d2)); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.Len()))
	}
}
