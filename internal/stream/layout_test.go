package stream

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"moas/internal/bgp"
	"moas/internal/ptable/ptabletest"
)

// TestHotLayouts guards the sizes and the pointer-freedom the measured
// gain rests on, so neither can rot silently: the route-node arena must
// stay invisible to the garbage collector at 12 bytes a route, and an op
// must stay within 40 bytes with exactly one pointer (the attrs block).
func TestHotLayouts(t *testing.T) {
	if typ := reflect.TypeOf(routeNode{}); !ptabletest.PointerFree(typ) {
		t.Errorf("%s contains pointers", typ)
	}
	if n := unsafe.Sizeof(routeNode{}); n > 12 {
		t.Errorf("routeNode is %d bytes, want <= 12", n)
	}
	if n := unsafe.Sizeof(op{}); n > 40 {
		t.Errorf("op is %d bytes, want <= 40", n)
	}
}

// TestAttrTableAgainstMap drives random hold/drop sequences through the
// handle table and checks it against a refcount map: a pointer keeps one
// handle while any route holds it, the handle is recycled when the last
// one drops it, the table never holds more handles than were live at
// once, and a handle's origin is its block's, also on a recycled handle.
func TestAttrTableAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	blocks := make([]*bgp.Attrs, 700) // past two index growths
	for i := range blocks {
		blocks[i] = &bgp.Attrs{MED: uint32(i)}
		if i%3 != 0 { // every third block has no path, so no origin
			blocks[i].ASPath = bgp.Seq(701, bgp.ASN(i))
		}
	}
	var tab attrTable
	type held struct {
		h    uint32
		refs int
	}
	ref := make(map[*bgp.Attrs]*held)
	highWater := 0
	for step := 0; step < 50000; step++ {
		a := blocks[rng.Intn(len(blocks))]
		if e := ref[a]; e != nil && rng.Intn(2) == 0 {
			tab.release(e.h)
			if e.refs--; e.refs == 0 {
				delete(ref, a)
			}
			continue
		}
		h := tab.acquire(a)
		if e := ref[a]; e != nil {
			if h != e.h {
				t.Fatalf("step %d: held pointer moved from handle %d to %d", step, e.h, h)
			}
			e.refs++
		} else {
			ref[a] = &held{h, 1}
		}
		if tab.ptr(h) != a {
			t.Fatalf("step %d: handle %d resolves to another block", step, h)
		}
		if as, ok := a.ASPath.Origin(); tab.origin(h) != (handleOrigin{as, ok}) {
			t.Fatalf("step %d: handle %d has origin %+v, its block %d/%v", step, h, tab.origin(h), as, ok)
		}
		highWater = max(highWater, len(ref))
	}
	if tab.idx.Len() != len(ref) {
		t.Fatalf("%d live handles, want %d", tab.idx.Len(), len(ref))
	}
	if len(tab.ptrs) != highWater {
		t.Fatalf("%d handles carved, want the live high-water mark %d", len(tab.ptrs), highWater)
	}
	seen := make(map[uint32]bool)
	for a, e := range ref {
		if tab.ptr(e.h) != a || int(tab.refs[e.h]) != e.refs || seen[e.h] {
			t.Fatalf("handle %d: ptr/refs/uniqueness mismatch", e.h)
		}
		seen[e.h] = true
	}
}

// TestShardIDReuse pins the shard's side of the id contract: when a
// prefix's last route goes and the kernel recycles its id, the next
// prefix to take the id must start with an empty route list, and the
// first prefix must come back clean.
func TestShardIDReuse(t *testing.T) {
	e := New(Config{Shards: 1})
	defer e.Close()
	peer := PeerKey{IP: [16]byte{1}, AS: 701}
	other := PeerKey{IP: [16]byte{2}, AS: 3356}
	attrs := &bgp.Attrs{ASPath: bgp.Seq(701, 9)}
	p := bgp.MustParsePrefix("10.0.0.0/8")
	q := bgp.MustParsePrefix("2001:db8::/32")

	e.ApplyUpdate(0, peer, &bgp.Update{NLRI: []bgp.Prefix{p}, Attrs: attrs})
	e.ApplyUpdate(0, other, &bgp.Update{NLRI: []bgp.Prefix{p}, Attrs: attrs})
	e.ApplyUpdate(0, peer, &bgp.Update{Withdrawn: []bgp.Prefix{p}})
	e.ApplyUpdate(0, other, &bgp.Update{Withdrawn: []bgp.Prefix{p}})
	e.ApplyUpdate(0, peer, &bgp.Update{NLRI: []bgp.Prefix{q}, Attrs: attrs})
	e.Sync()
	if got := e.Prefix(q); got.Routes != 1 || len(got.Origins) != 1 || got.Origins[0] != 9 {
		t.Fatalf("prefix on a recycled id: %+v", got)
	}
	if got := e.Prefix(p); got.Routes != 0 || len(got.Origins) != 0 {
		t.Fatalf("withdrawn prefix still visible: %+v", got)
	}
	st := e.Stats()
	if st.KernelStates != 1 || st.RouteNodes != 2 || st.AttrHandles != 1 || st.Peers != 2 {
		t.Fatalf("arenas after reuse: %d table entries, %d nodes, %d handles, %d peers",
			st.KernelStates, st.RouteNodes, st.AttrHandles, st.Peers)
	}
	e.ApplyUpdate(0, other, &bgp.Update{NLRI: []bgp.Prefix{p}, Attrs: attrs})
	e.Sync()
	if got := e.Prefix(p); got.Routes != 1 {
		t.Fatalf("re-announced prefix: %+v", got)
	}
}
