package simnet

import (
	"testing"

	"moas/internal/bgp"
	"moas/internal/topology"
)

// testGraph builds a small fixed topology:
//
//	tier1:   701 ——peer—— 1239
//	          |             |
//	tier2:  2001          2002      (2001 peers 2002)
//	          |             |
//	stubs:  3001          3002
//	          \— 3003 —/            (3003 multihomed to 2001 and 2002)
func testGraph(t *testing.T) *topology.Graph {
	t.Helper()
	g := topology.NewGraph()
	g.AddAS(701, topology.Tier1)
	g.AddAS(1239, topology.Tier1)
	g.AddAS(2001, topology.Tier2)
	g.AddAS(2002, topology.Tier2)
	g.AddAS(3001, topology.TierStub)
	g.AddAS(3002, topology.TierStub)
	g.AddAS(3003, topology.TierStub)
	g.AddPeering(701, 1239)
	g.AddPeering(2001, 2002)
	g.AddTransit(701, 2001)
	g.AddTransit(1239, 2002)
	g.AddTransit(2001, 3001)
	g.AddTransit(2002, 3002)
	g.AddTransit(2001, 3003)
	g.AddTransit(2002, 3003)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

func pathString(p bgp.Path) string { return p.String() }

func TestPropagationPaths(t *testing.T) {
	n := New(testGraph(t))
	rt := n.Routes(3001, nil)

	cases := []struct {
		vantage bgp.ASN
		want    string
	}{
		{3001, "3001"},
		{2001, "2001 3001"},
		{701, "701 2001 3001"},
		{1239, "1239 701 2001 3001"},  // across the tier-1 peering
		{2002, "2002 2001 3001"},      // across the tier-2 peering
		{3002, "3002 2002 2001 3001"}, // down from 2002
	}
	for _, c := range cases {
		p, ok := n.PathFrom(rt, c.vantage)
		if !ok {
			t.Fatalf("no path from %v", c.vantage)
		}
		if pathString(p) != c.want {
			t.Errorf("path from %v = %q, want %q", c.vantage, p, c.want)
		}
	}
}

func TestPropagationValleyFree(t *testing.T) {
	// A route learned from a peer must not be re-exported to another peer
	// or provider: 1239 reaches 3001 via its peer 701 (see above). 2002 is
	// 1239's customer, so 2002 may hear it — but 2002 has a better route
	// via its own peer 2001. The valley-free check: no path may go
	// down (provider->customer) and then up (customer->provider).
	g := testGraph(t)
	n := New(g)
	for _, origin := range []bgp.ASN{3001, 3002, 3003, 2001, 701} {
		rt := n.Routes(origin, nil)
		for _, v := range g.ASes() {
			p, ok := n.PathFrom(rt, v)
			if !ok {
				continue
			}
			assertValleyFree(t, g, p)
		}
	}
}

// pathASes returns every AS on p, in order.
func pathASes(p bgp.Path) []bgp.ASN {
	var out []bgp.ASN
	for _, s := range p {
		out = append(out, s.ASes...)
	}
	return out
}

// classAt returns the preference class and hop count v holds toward rt's
// root.
func classAt(rt *RouteTable, g *topology.Graph, v bgp.ASN) (int8, int32, bool) {
	vi := g.Index(v)
	if vi < 0 || !rt.reachable(vi) {
		return classNone, 0, false
	}
	return rt.class[vi], rt.hops[vi], true
}

// assertValleyFree verifies the Gao-Rexford property along a path from
// vantage to origin: once the path (read origin->vantage as export steps)
// has gone provider->customer or peer-peer, it may not go up or peer again.
func assertValleyFree(t *testing.T, g *topology.Graph, p bgp.Path) {
	t.Helper()
	ases := pathASes(p)
	// Walk export direction: origin ... vantage (reverse of stored order).
	descending := false
	peers := 0
	for i := len(ases) - 1; i > 0; i-- {
		from, to := ases[i], ases[i-1] // from exports to "to"
		rel := relOf(g, from, to)
		switch rel {
		case topology.RelProvider: // to is from's provider: climbing
			if descending {
				t.Fatalf("valley in path %s", p)
			}
		case topology.RelPeer:
			peers++
			if peers > 1 || descending {
				t.Fatalf("peer violation in path %s", p)
			}
			descending = true
		case topology.RelCustomer:
			descending = true
		default:
			t.Fatalf("non-adjacent hop %v->%v in %s", from, to, p)
		}
	}
}

// relOf returns the relationship of "to" as seen from "from".
func relOf(g *topology.Graph, from, to bgp.ASN) topology.Rel {
	for _, e := range g.Neighbors(from) {
		if e.To == to {
			return e.Rel
		}
	}
	return topology.Rel(-1)
}

func TestPropagationPrefersCustomerRoutes(t *testing.T) {
	// 2001's route to 3003: direct customer link (1 hop) — not via peer
	// 2002, even though both reach 3003.
	n := New(testGraph(t))
	rt := n.Routes(3003, nil)
	cl, hops, ok := classAt(rt, n.G, 2001)
	if !ok || cl != classCustomer || hops != 1 {
		t.Fatalf("2001 route to 3003 = class %d hops %d", cl, hops)
	}
	// 701 reaches 3003 via its customer chain (701 2001 3003), class
	// customer, never via its peer 1239.
	p, _ := n.PathFrom(rt, 701)
	if pathString(p) != "701 2001 3003" {
		t.Fatalf("701 path = %q", p)
	}
}

func TestPropagationFirstHops(t *testing.T) {
	// 3003 announces only via 2002: nothing may reach it through 2001's
	// customer link.
	n := New(testGraph(t))
	rt := n.Routes(3003, []bgp.ASN{2002})
	p, ok := n.PathFrom(rt, 2001)
	if !ok {
		t.Fatal("2001 lost reachability entirely")
	}
	if pathString(p) != "2001 2002 3003" {
		t.Fatalf("2001 path = %q, want via peer 2002", p)
	}
	p, _ = n.PathFrom(rt, 701)
	if pathString(p) != "701 1239 2002 3003" {
		t.Fatalf("701 path = %q", p)
	}
}

func TestPropagationUnknownRoot(t *testing.T) {
	n := New(testGraph(t))
	rt := n.Routes(9999, nil)
	if _, ok := n.PathFrom(rt, 701); ok {
		t.Fatal("path to unknown root exists")
	}
}

func TestRoutesCached(t *testing.T) {
	n := New(testGraph(t))
	a := n.Routes(3001, nil)
	b := n.Routes(3001, nil)
	if a != b {
		t.Fatal("identical route request not cached")
	}
	c := n.Routes(3001, []bgp.ASN{2001})
	if c == a {
		t.Fatal("restricted request shared unrestricted table")
	}
	// FirstHops order must not change the key.
	d := n.Routes(3003, []bgp.ASN{2002, 2001})
	e := n.Routes(3003, []bgp.ASN{2001, 2002})
	if d != e {
		t.Fatal("first-hop order changed cache identity")
	}
}

var allVantages = []bgp.ASN{701, 1239, 2001, 2002, 3001, 3002}

// originSetOf collects distinct origins across vantage routes.
func originSetOf(vrs []VantageRoute) map[bgp.ASN]bool {
	out := map[bgp.ASN]bool{}
	for _, vr := range vrs {
		if o, ok := vr.Path.Origin(); ok {
			out[o] = true
		}
	}
	return out
}

func TestVantagePathsSingleOrigin(t *testing.T) {
	n := New(testGraph(t))
	vrs := n.VantagePaths(allVantages, AdvertiseSingle(3003))
	if len(vrs) != len(allVantages) {
		t.Fatalf("got %d vantage routes", len(vrs))
	}
	os := originSetOf(vrs)
	if len(os) != 1 || !os[3003] {
		t.Fatalf("origins = %v", os)
	}
}

func TestVantagePathsHijackVisible(t *testing.T) {
	n := New(testGraph(t))
	vrs := n.VantagePaths(allVantages, AdvertiseHijack(3001, 3002))
	os := originSetOf(vrs)
	if !os[3001] || !os[3002] {
		t.Fatalf("hijack produced origins %v, want both 3001 and 3002", os)
	}
	// Every vantage still reports exactly one route.
	if len(vrs) != len(allVantages) {
		t.Fatalf("vantage count = %d", len(vrs))
	}
}

func TestVantagePathsSplitView(t *testing.T) {
	n := New(testGraph(t))
	// 2001 splits its exports between customer origins 3001 and 3003.
	advs := n.AdvertiseSplitView(2001, 3001, 3003)
	vrs := n.VantagePaths([]bgp.ASN{701, 2002, 1239, 3002}, advs)
	os := originSetOf(vrs)
	if !os[3001] || !os[3003] {
		t.Fatalf("split view origins = %v, want both", os)
	}
	// All observed paths must carry 2001 as the penultimate hop.
	for _, vr := range vrs {
		ases := pathASes(vr.Path)
		if len(ases) < 2 || ases[len(ases)-2] != 2001 {
			t.Fatalf("path %q does not transit 2001 as penultimate hop", vr.Path)
		}
	}
}

func TestVantagePathsOrigTranAS(t *testing.T) {
	n := New(testGraph(t))
	advs := n.AdvertiseOrigTranAS(2001, 3003)
	vrs := n.VantagePaths(allVantages, advs)
	os := originSetOf(vrs)
	if !os[2001] || !os[3003] {
		t.Fatalf("origins = %v, want 2001 and 3003", os)
	}
	// Paths ending in 3003 must transit 2001 (the OrigTranAS signature).
	for _, vr := range vrs {
		if o, _ := vr.Path.Origin(); o == 3003 {
			if !vr.Path.Contains(2001) {
				t.Fatalf("customer path %q does not transit the provider", vr.Path)
			}
		}
	}
}

func TestVantagePathsExchangePoint(t *testing.T) {
	n := New(testGraph(t))
	vrs := n.VantagePaths(allVantages, AdvertiseExchangePoint(2001, 2002))
	os := originSetOf(vrs)
	if !os[2001] || !os[2002] {
		t.Fatalf("exchange point origins = %v", os)
	}
}

func TestVantagePathsDisjointStatic(t *testing.T) {
	n := New(testGraph(t))
	// 3003 announces only via 2001; 2002 statically originates the prefix.
	vrs := n.VantagePaths(allVantages, AdvertiseDisjointStatic(3003, 2001, 2002))
	os := originSetOf(vrs)
	if !os[3003] || !os[2002] {
		t.Fatalf("origins = %v, want 3003 and 2002", os)
	}
}

func TestVantagePathsEmpty(t *testing.T) {
	n := New(testGraph(t))
	if vrs := n.VantagePaths(allVantages, nil); vrs != nil {
		t.Fatalf("no advertisements produced routes: %v", vrs)
	}
	// Unknown vantage is skipped silently.
	vrs := n.VantagePaths([]bgp.ASN{42}, AdvertiseSingle(3001))
	if len(vrs) != 0 {
		t.Fatalf("unknown vantage produced route")
	}
}

func TestVantagePathsDeterministic(t *testing.T) {
	n := New(testGraph(t))
	advs := AdvertiseHijack(3001, 3002)
	a := n.VantagePaths(allVantages, advs)
	b := n.VantagePaths(allVantages, advs)
	if len(a) != len(b) {
		t.Fatal("nondeterministic vantage count")
	}
	for i := range a {
		if a[i].Vantage != b[i].Vantage || !a[i].Path.Equal(b[i].Path) {
			t.Fatal("nondeterministic vantage paths")
		}
	}
}

func TestNeighborHalvesPartition(t *testing.T) {
	n := New(testGraph(t))
	even, odd := n.NeighborHalves(2001)
	seen := map[bgp.ASN]bool{}
	for _, a := range append(append([]bgp.ASN{}, even...), odd...) {
		if seen[a] {
			t.Fatalf("AS %v in both halves", a)
		}
		seen[a] = true
	}
	// 2001's neighbors: 701 (provider), 2002 (peer), 3001, 3003 (customers).
	if len(seen) != 4 {
		t.Fatalf("halves cover %d of 4 neighbors", len(seen))
	}
	if len(even)-len(odd) > 1 || len(odd) > len(even) {
		t.Fatalf("unbalanced halves: %d vs %d", len(even), len(odd))
	}
}

func TestGeneratedTopologyFullReachability(t *testing.T) {
	cfg := topology.DefaultGenConfig()
	cfg.Tier2, cfg.Tier3, cfg.Stubs = 15, 40, 200
	g, err := topology.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := New(g)
	// Every AS must reach every origin (the generated graph is connected
	// and valley-free routing suffices from any origin).
	for _, origin := range []bgp.ASN{g.ASes()[0], g.ASes()[g.Len()/2], g.ASes()[g.Len()-1]} {
		rt := n.Routes(origin, nil)
		for _, v := range g.ASes() {
			if _, ok := n.PathFrom(rt, v); !ok {
				t.Fatalf("%v cannot reach %v", v, origin)
			}
		}
	}
}

func BenchmarkPropagate(b *testing.B) {
	cfg := topology.DefaultGenConfig()
	g, err := topology.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	n := New(g)
	origins := g.ASes()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// Bypass the cache to measure propagation itself.
		n.propagate(origins[i%len(origins)], nil)
	}
}

func BenchmarkVantagePaths(b *testing.B) {
	cfg := topology.DefaultGenConfig()
	g, err := topology.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	n := New(g)
	ases := g.ASes()
	vantages := ases[:40]
	advs := AdvertiseHijack(ases[len(ases)-1], ases[len(ases)-2])
	n.VantagePaths(vantages, advs) // warm cache
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n.VantagePaths(vantages, advs)
	}
}
