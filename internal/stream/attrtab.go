package stream

import (
	"unsafe"

	"moas/internal/arena"
	"moas/internal/bgp"
)

// attrTable is a shard's refcounted table of the attribute blocks its
// routes hold: a route node stores a 4-byte handle instead of the 8-byte
// pointer, so the node arena stays invisible to the garbage collector
// and the pointers it would have traced per route (2M on a full table)
// shrink to one per (peer, block) pair the shard holds (tens of
// thousands).
// A handle names one (peer, pointer) pair, not one value: the node
// keeps no peer of its own, so a block announced by two peers gets a
// handle per peer, and a block re-interned in a later interner epoch
// arrives as a new pointer and gets a new handle, which upsertRoute's
// Attrs.Equal fallback keeps from reading as a route change. Real feeds
// add no handles for the peer: a peer's AS_PATH starts with its own AS
// and its NEXT_HOP is itself, so two peers almost never send one block.
// And since every handle is held by at least one route, handles never
// outnumber routes, and the 4 bytes a handle spends on its peer never
// outweigh the 4 a route saves. The last route to drop a handle frees
// it, so the table is bounded by the live routes, not by the blocks
// ever seen. A handle also carries its block's origin AS, taken once
// when the handle is created, so reassessing a prefix reads one origin
// per route from here and never walks an AS path it does not classify.
type attrTable struct {
	ptrs  []*bgp.Attrs // handle → block; nil while the handle is free
	refs  []uint32     // handle → routes holding it; free-chain link while free
	infos []handleInfo // handle → its peer and its block's origin AS
	// idx finds a pair's handle, hashed on the pointer's address (the Go
	// heap does not move objects) and the peer.
	idx  arena.Index
	free uint32 // head of the free-handle chain plus one; 0 when empty
}

// handleInfo is what a handle records beside its block: the peer whose
// routes hold it and the block's origin AS, in one record, so that a
// route-list walk's peer test and reassess's origin read load one cache
// line. The origin is bgp.Path.Origin's; when that reports none (an
// empty path, or one ending in an AS_SET) the route contributes no
// origin, and the peer word carries noOrigin, a bit no peer index
// reaches (the peer table would need 2^31 peers), so the record has no
// padding.
type handleInfo struct {
	peer   uint32 // index into Engine.peers, or'ed with noOrigin
	origin bgp.ASN
}

const noOrigin = 1 << 31

func attrHash(a *bgp.Attrs, peer uint32) uint32 {
	x := uint64(uintptr(unsafe.Pointer(a)))*0x9e3779b97f4a7c15 ^ uint64(peer)*0xbf58476d1ce4e5b9
	return uint32(x >> 32)
}

// hashOf returns the index hash of a live handle.
func (t *attrTable) hashOf(h uint32) uint32 { return attrHash(t.ptrs[h], t.peer(h)) }

// ptr returns the block behind a handle.
func (t *attrTable) ptr(h uint32) *bgp.Attrs { return t.ptrs[h] }

// peer returns the peer whose routes hold a handle.
func (t *attrTable) peer(h uint32) uint32 { return t.infos[h].peer &^ noOrigin }

// origin returns the origin AS of the block behind a handle; ok is false
// when the block's path has none.
func (t *attrTable) origin(h uint32) (as bgp.ASN, ok bool) {
	in := t.infos[h]
	return in.origin, in.peer&noOrigin == 0
}

// acquire returns the handle of (a, peer) with one more reference,
// entering the pair if the shard does not hold it yet.
func (t *attrTable) acquire(a *bgp.Attrs, peer uint32) uint32 {
	hash := attrHash(a, peer)
	if h, ok := t.idx.Find(hash, func(h uint32) bool { return t.ptrs[h] == a && t.peer(h) == peer }); ok {
		t.refs[h]++
		return h
	}
	in := handleInfo{peer: peer}
	var ok bool
	if in.origin, ok = a.ASPath.Origin(); !ok {
		in.peer |= noOrigin
	}
	var h uint32
	if t.free != 0 {
		h = t.free - 1
		t.free = t.refs[h]
		t.ptrs[h], t.infos[h] = a, in
	} else {
		h = uint32(len(t.ptrs))
		t.ptrs = append(t.ptrs, a)
		t.refs = append(t.refs, 0)
		t.infos = append(t.infos, in)
	}
	t.refs[h] = 1
	t.idx.Insert(hash, h, t.hashOf)
	return h
}

// release drops one reference; the last one frees the handle for reuse.
func (t *attrTable) release(h uint32) {
	if t.refs[h]--; t.refs[h] > 0 {
		return
	}
	t.idx.Delete(t.hashOf(h), h, t.hashOf)
	t.ptrs[h] = nil
	t.refs[h] = t.free
	t.free = h + 1
}
