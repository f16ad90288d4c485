package rib

import (
	"reflect"
	"testing"

	"moas/internal/bgp"
)

func pfx(s string) bgp.Prefix { return bgp.MustParsePrefix(s) }

func route(prefix, path string) bgp.Route {
	return bgp.Route{
		Prefix: pfx(prefix),
		Attrs:  &bgp.Attrs{ASPath: bgp.MustParsePath(path), NextHop: [4]byte{192, 0, 2, 1}},
	}
}

func TestTableViewOriginSet(t *testing.T) {
	v := NewTableView()
	v.Add(PeerRoute{PeerID: 1, PeerAS: 701, Route: route("10.0.0.0/8", "701 9")})
	v.Add(PeerRoute{PeerID: 2, PeerAS: 3356, Route: route("10.0.0.0/8", "3356 1239 9")})
	v.Add(PeerRoute{PeerID: 3, PeerAS: 7018, Route: route("10.0.0.0/8", "7018 12")})
	v.Add(PeerRoute{PeerID: 4, PeerAS: 2914, Route: route("10.0.0.0/8", "2914 {5,6}")}) // AS_SET: excluded

	origins, excluded := OriginsOf(v.Routes(pfx("10.0.0.0/8")))
	if excluded != 1 {
		t.Errorf("excluded = %d, want 1", excluded)
	}
	if len(origins) != 2 || origins[0] != 9 || origins[1] != 12 {
		t.Errorf("origins = %v, want [9 12]", origins)
	}

	// A prefix absent from the view has an empty origin set.
	origins, excluded = OriginsOf(v.Routes(pfx("99.0.0.0/8")))
	if origins != nil || excluded != 0 {
		t.Errorf("absent prefix: (%v,%d)", origins, excluded)
	}
}

// TestTableViewFromPeers builds a view from two peers' routes and reads
// it back through every accessor.
func TestTableViewFromPeers(t *testing.T) {
	v := NewTableView()
	v.Add(PeerRoute{PeerID: 1, PeerAS: 701, Route: route("10.0.0.0/8", "701 9")})
	v.Add(PeerRoute{PeerID: 2, PeerAS: 3356, Route: route("10.0.0.0/8", "3356 10")})
	v.Add(PeerRoute{PeerID: 2, PeerAS: 3356, Route: route("20.0.0.0/8", "3356 20")})
	if v.Len() != 2 {
		t.Fatalf("view Len = %d", v.Len())
	}
	origins, _ := OriginsOf(v.Routes(pfx("10.0.0.0/8")))
	if len(origins) != 2 {
		t.Fatalf("origins = %v", origins)
	}
	ps := v.Prefixes()
	if len(ps) != 2 || ps[0] != pfx("10.0.0.0/8") || ps[1] != pfx("20.0.0.0/8") {
		t.Fatalf("Prefixes = %v", ps)
	}
	if got := v.Routes(pfx("10.0.0.0/8")); len(got) != 2 {
		t.Fatalf("Routes len = %d", len(got))
	}
	n := 0
	v.Walk(func(bgp.Prefix, []PeerRoute) bool { n++; return n < 1 })
	if n != 1 {
		t.Fatalf("Walk early stop visited %d", n)
	}
}

func TestOriginsOfDedup(t *testing.T) {
	rs := []PeerRoute{
		{PeerID: 1, Route: route("10.0.0.0/8", "701 9")},
		{PeerID: 2, Route: route("10.0.0.0/8", "3356 9")},
		{PeerID: 3, Route: route("10.0.0.0/8", "7018 1239 9")},
	}
	origins, excluded := OriginsOf(rs)
	if excluded != 0 || len(origins) != 1 || origins[0] != 9 {
		t.Fatalf("OriginsOf = (%v,%d), want ([9],0)", origins, excluded)
	}
	if origins, _ := OriginsOf(nil); origins != nil {
		t.Fatal("OriginsOf(nil) != nil")
	}
}

func TestAppendOriginsReuse(t *testing.T) {
	rs := []PeerRoute{
		{PeerID: 1, Route: route("10.0.0.0/8", "701 9")},
		{PeerID: 2, Route: route("10.0.0.0/8", "3356 4")},
		{PeerID: 3, Route: route("10.0.0.0/8", "7018 1239 9")},
		{PeerID: 4, Route: route("10.0.0.0/8", "701 7")},
	}
	scratch := make([]bgp.ASN, 0, 8)
	origins, excluded := AppendOrigins(scratch, rs)
	if excluded != 0 {
		t.Fatalf("excluded = %d, want 0", excluded)
	}
	if want := []bgp.ASN{4, 7, 9}; !reflect.DeepEqual(origins, want) {
		t.Fatalf("AppendOrigins = %v, want %v", origins, want)
	}
	if &origins[0] != &scratch[:1][0] {
		t.Fatal("AppendOrigins did not reuse the caller's backing array")
	}
	// A second pass over a smaller route set resets rather than appends.
	origins, _ = AppendOrigins(origins, rs[:1])
	if want := []bgp.ASN{9}; !reflect.DeepEqual(origins, want) {
		t.Fatalf("reused AppendOrigins = %v, want %v", origins, want)
	}
	// Steady-state recompute into a warm scratch performs no allocation.
	if n := testing.AllocsPerRun(100, func() { origins, _ = AppendOrigins(origins, rs) }); n != 0 {
		t.Fatalf("AppendOrigins allocates %v per run with warm scratch", n)
	}
}
