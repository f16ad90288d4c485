package simnet

import (
	"math/rand"
	"testing"

	"moas/internal/bgp"
	"moas/internal/topology"
)

// TestFirstHopsPeerOnly: a root exporting only toward a peer still reaches
// the world through that peer's customer cone and peers, valley-free.
func TestFirstHopsPeerOnly(t *testing.T) {
	n := New(testGraph(t))
	// 2001 announces only to its peer 2002.
	rt := n.Routes(2001, []bgp.ASN{2002})
	// 2002 hears it (peer route).
	if p, ok := n.PathFrom(rt, 2002); !ok || pathString(p) != "2002 2001" {
		t.Fatalf("2002 path = %v", p)
	}
	// 2002's customers hear it (peer routes go down).
	if p, ok := n.PathFrom(rt, 3002); !ok || pathString(p) != "3002 2002 2001" {
		t.Fatalf("3002 path = %v", p)
	}
	// 2002's PROVIDER must NOT hear it: peer routes don't go up.
	if _, ok := n.PathFrom(rt, 1239); ok {
		t.Fatal("peer route leaked upward to 1239")
	}
	// And 701 (root's own provider) must not hear it either.
	if _, ok := n.PathFrom(rt, 701); ok {
		t.Fatal("announcement leaked to an excluded provider")
	}
}

// TestFirstHopsCustomerOnly: exporting only toward a customer confines the
// route to that customer (stubs provide no transit).
func TestFirstHopsCustomerOnly(t *testing.T) {
	n := New(testGraph(t))
	rt := n.Routes(2001, []bgp.ASN{3001})
	if p, ok := n.PathFrom(rt, 3001); !ok || pathString(p) != "3001 2001" {
		t.Fatalf("3001 path = %v", p)
	}
	for _, v := range []bgp.ASN{701, 1239, 2002, 3002, 3003} {
		if _, ok := n.PathFrom(rt, v); ok {
			t.Fatalf("customer-only export leaked to %v", v)
		}
	}
}

// TestQuickValleyFreeOnGeneratedTopology: random origins and random
// first-hop restrictions on a generated graph never produce a
// valley-violating path.
func TestQuickValleyFreeOnGeneratedTopology(t *testing.T) {
	cfg := topology.DefaultGenConfig()
	cfg.Tier2, cfg.Tier3, cfg.Stubs = 10, 25, 120
	g, err := topology.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := New(g)
	ases := g.ASes()
	r := rand.New(rand.NewSource(79))
	for trial := 0; trial < 60; trial++ {
		origin := ases[r.Intn(len(ases))]
		var firstHops []bgp.ASN
		if r.Intn(2) == 0 {
			neigh := g.Neighbors(origin)
			if len(neigh) > 0 {
				firstHops = []bgp.ASN{neigh[r.Intn(len(neigh))].To}
			}
		}
		rt := n.Routes(origin, firstHops)
		for _, v := range ases {
			p, ok := n.PathFrom(rt, v)
			if !ok {
				continue
			}
			assertValleyFree(t, g, p)
			if o, ok := p.Origin(); !ok || o != origin {
				t.Fatalf("path %q does not end at origin %v", p, origin)
			}
			if len(p) == 0 || p[0].Type != bgp.SegSequence || p[0].ASes[0] != v {
				t.Fatalf("path %q does not start at vantage %v", p, v)
			}
			if p.ContainsLoop() {
				t.Fatalf("looped path %q", p)
			}
		}
	}
}

// TestClassAtUnknownAS covers the diagnostics accessor's miss paths.
func TestClassAtUnknownAS(t *testing.T) {
	n := New(testGraph(t))
	rt := n.Routes(3001, nil)
	if _, _, ok := rt.ClassAt(n.G, 9999); ok {
		t.Fatal("unknown AS has a class")
	}
	restricted := n.Routes(3003, []bgp.ASN{2002})
	// 2001 reaches 3003 via peer 2002 in the restricted table; its class
	// must be peer, not customer.
	cl, _, ok := restricted.ClassAt(n.G, 2001)
	if !ok || cl != classPeer {
		t.Fatalf("2001 class = %d, want peer", cl)
	}
}
