package stream

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"moas/internal/bgp"
	"moas/internal/ptable/ptabletest"
)

// TestHotLayouts guards the sizes and the pointer-freedom the measured
// gain rests on, so neither can rot silently: the route-node arena must
// stay invisible to the garbage collector at 8 bytes a route, a handle's
// peer and origin must share one 8-byte record, and an op must stay
// within 40 bytes with exactly one pointer (the attrs block).
func TestHotLayouts(t *testing.T) {
	if typ := reflect.TypeOf(routeNode{}); !ptabletest.PointerFree(typ) {
		t.Errorf("%s contains pointers", typ)
	}
	if n := unsafe.Sizeof(routeNode{}); n > 8 {
		t.Errorf("routeNode is %d bytes, want <= 8", n)
	}
	if n := unsafe.Sizeof(handleInfo{}); n > 8 {
		t.Errorf("handleInfo is %d bytes, want <= 8", n)
	}
	if n := unsafe.Sizeof(op{}); n > 40 {
		t.Errorf("op is %d bytes, want <= 40", n)
	}
}

// TestAttrTableAgainstMap drives random hold/drop sequences of (peer,
// block) pairs through the handle table and checks it against a
// refcount map: a pair keeps one handle while any route holds it, one
// block under several peers holds one handle per peer, the handle is
// recycled when the last route drops it, the table never holds more
// handles than were live at once, and a handle's peer and origin are
// its pair's, also on a recycled handle.
func TestAttrTableAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	blocks := make([]*bgp.Attrs, 300) // × 3 peers: past two index growths
	for i := range blocks {
		blocks[i] = &bgp.Attrs{MED: uint32(i)}
		if i%3 != 0 { // every third block has no path, so no origin
			blocks[i].ASPath = bgp.Seq(701, bgp.ASN(i))
		}
	}
	peers := []uint32{0, 1, noOrigin - 1} // the top peer index a handle can name
	var tab attrTable
	type pair struct {
		a    *bgp.Attrs
		peer uint32
	}
	type held struct {
		h    uint32
		refs int
	}
	ref := make(map[pair]*held)
	highWater := 0
	for step := 0; step < 50000; step++ {
		k := pair{blocks[rng.Intn(len(blocks))], peers[rng.Intn(len(peers))]}
		if e := ref[k]; e != nil && rng.Intn(2) == 0 {
			tab.release(e.h)
			if e.refs--; e.refs == 0 {
				delete(ref, k)
			}
			continue
		}
		h := tab.acquire(k.a, k.peer)
		if e := ref[k]; e != nil {
			if h != e.h {
				t.Fatalf("step %d: held pair moved from handle %d to %d", step, e.h, h)
			}
			e.refs++
		} else {
			ref[k] = &held{h, 1}
		}
		if tab.ptr(h) != k.a || tab.peer(h) != k.peer {
			t.Fatalf("step %d: handle %d resolves to another pair", step, h)
		}
		as, ok := k.a.ASPath.Origin()
		if gotAS, gotOK := tab.origin(h); gotOK != ok || ok && gotAS != as {
			t.Fatalf("step %d: handle %d has origin %d/%v, its block %d/%v", step, h, gotAS, gotOK, as, ok)
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
	for k, e := range ref {
		if tab.ptr(e.h) != k.a || tab.peer(e.h) != k.peer || int(tab.refs[e.h]) != e.refs || seen[e.h] {
			t.Fatalf("handle %d: ptr/peer/refs/uniqueness mismatch", e.h)
		}
		seen[e.h] = true
	}

	// One block under every peer, held twice each: one handle per peer,
	// and each peer's second hold finds its own.
	var shared attrTable
	handles := make(map[uint32]uint32)
	for _, peer := range peers {
		h := shared.acquire(blocks[1], peer)
		if again := shared.acquire(blocks[1], peer); again != h {
			t.Fatalf("peer %d: block 1 took handles %d and %d", peer, h, again)
		}
		handles[h] = peer
	}
	for h, peer := range handles {
		if shared.peer(h) != peer || shared.refs[h] != 2 {
			t.Fatalf("handle %d: peer %d with %d refs, want peer %d with 2", h, shared.peer(h), shared.refs[h], peer)
		}
	}
	if len(handles) != len(peers) {
		t.Fatalf("block 1 under %d peers took %d handles", len(peers), len(handles))
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
	// Both peers announced the one block: a handle names a (peer, block)
	// pair, so the shard carved two handles.
	if st.KernelStates != 1 || st.RouteNodes != 2 || st.AttrHandles != 2 || st.Peers != 2 {
		t.Fatalf("arenas after reuse: %d table entries, %d nodes, %d handles, %d peers",
			st.KernelStates, st.RouteNodes, st.AttrHandles, st.Peers)
	}
	e.ApplyUpdate(0, other, &bgp.Update{NLRI: []bgp.Prefix{p}, Attrs: attrs})
	e.Sync()
	if got := e.Prefix(p); got.Routes != 1 {
		t.Fatalf("re-announced prefix: %+v", got)
	}
}

// TestSharedBlockAcrossPeers: one attribute block announced by two peers
// is two handles, one per peer, and a withdrawal by one peer releases
// that peer's handle only. The other peer's route, and the origin it
// gives its prefix, survive; a peer moving a route onto the shared block
// takes its own handle of it. A checkpoint of the shared state encodes
// the block once, and an engine rebuilt from it checkpoints to the same
// bytes.
func TestSharedBlockAcrossPeers(t *testing.T) {
	e := New(Config{Shards: 1})
	defer e.Close()
	a := PeerKey{IP: [16]byte{1}, AS: 64500}
	b := PeerKey{IP: [16]byte{2}, AS: 64501}
	shared := &bgp.Attrs{ASPath: bgp.Seq(64500, 64499, 9), MED: 77}
	other := &bgp.Attrs{ASPath: bgp.Seq(64501, 12)}
	p := bgp.MustParsePrefix("10.0.0.0/8")
	q := bgp.MustParsePrefix("2001:db8::/32")
	r := bgp.MustParsePrefix("192.0.2.0/24")
	live := func() (n int) {
		e.Sync()
		for _, x := range e.shards[0].attrs.ptrs {
			if x != nil {
				n++
			}
		}
		return n
	}
	routes := func(pfx bgp.Prefix, want int, origins ...bgp.ASN) {
		t.Helper()
		e.Sync()
		if got := e.Prefix(pfx); got.Routes != want || !slices.Equal(got.Origins, origins) {
			t.Fatalf("%v: %d routes, origins %v; want %d, %v", pfx, got.Routes, got.Origins, want, origins)
		}
	}

	e.ApplyUpdate(0, a, &bgp.Update{NLRI: []bgp.Prefix{p, q}, Attrs: shared})
	e.ApplyUpdate(0, b, &bgp.Update{NLRI: []bgp.Prefix{p, q}, Attrs: shared})
	e.ApplyUpdate(0, b, &bgp.Update{NLRI: []bgp.Prefix{r}, Attrs: other})
	if n := live(); n != 3 {
		t.Fatalf("%d live handles, want 3: the shared block under each peer and b's other block", n)
	}
	e.ApplyUpdate(0, b, &bgp.Update{NLRI: []bgp.Prefix{r}, Attrs: shared}) // onto b's handle
	e.ApplyUpdate(0, a, &bgp.Update{Withdrawn: []bgp.Prefix{p}})
	routes(p, 1, 9)
	routes(q, 2, 9)
	routes(r, 1, 9)
	if n := live(); n != 2 {
		t.Fatalf("%d live handles, want 2: a still holds the block under q", n)
	}
	e.ApplyUpdate(0, a, &bgp.Update{Withdrawn: []bgp.Prefix{q}})
	routes(p, 1, 9)
	routes(q, 1, 9)
	if n := live(); n != 1 {
		t.Fatalf("%d live handles after a's last withdrawal, want b's alone", n)
	}
	e.ApplyUpdate(0, a, &bgp.Update{NLRI: []bgp.Prefix{p, q}, Attrs: shared})

	wire := shared.AppendWireEx(nil, true)
	encode := func(e *Engine) []byte {
		t.Helper()
		e.Sync()
		bin, err := AppendCheckpointBinary(nil, e.Checkpoint())
		if err != nil {
			t.Fatal(err)
		}
		return bin
	}
	bin := encode(e)
	if n := bytes.Count(bin, wire); n != 1 {
		t.Fatalf("the shared block is encoded %d times, want once", n)
	}
	ck, err := DecodeCheckpointBinary(bin)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := NewFromCheckpoint(Config{Shards: 1}, ck)
	if err != nil {
		t.Fatal(err)
	}
	defer rebuilt.Close()
	if again := encode(rebuilt); !bytes.Equal(again, bin) {
		t.Fatalf("the rebuilt engine checkpoints to %d bytes, not the %d it was built from", len(again), len(bin))
	}
	if got := rebuilt.Prefix(q); got.Routes != 2 || !slices.Equal(got.Origins, []bgp.ASN{9}) {
		t.Fatalf("rebuilt %v: %+v", q, got)
	}
}
