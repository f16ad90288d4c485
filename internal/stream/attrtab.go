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
// shrink to one per distinct block the shard holds (tens of thousands).
// A handle names one pointer, not one value: a block re-interned in a
// later interner epoch arrives as a new pointer and gets a new handle,
// and upsertRoute's Attrs.Equal fallback keeps the two from reading as a
// route change. The last route to drop a handle frees it, so the table
// is bounded by the live routes, not by the blocks ever seen. A handle
// also carries its block's origin AS, taken once when the handle is
// created, so reassessing a prefix reads one origin per route from here
// and never walks an AS path it does not classify.
type attrTable struct {
	ptrs    []*bgp.Attrs   // handle → block; nil while the handle is free
	refs    []uint32       // handle → routes holding it; free-chain link while free
	origins []handleOrigin // handle → the block's origin AS
	// idx finds a pointer's handle, hashed on the pointer's address (the
	// Go heap does not move objects).
	idx  arena.Index
	free uint32 // head of the free-handle chain plus one; 0 when empty
}

// handleOrigin is the origin AS of a handle's block, as bgp.Path.Origin
// reports it: ok is false when the path is empty or ends in an AS_SET,
// and the route then contributes no origin.
type handleOrigin struct {
	as bgp.ASN
	ok bool
}

func attrHash(a *bgp.Attrs) uint32 {
	x := uint64(uintptr(unsafe.Pointer(a)))
	x *= 0x9e3779b97f4a7c15
	return uint32(x >> 32)
}

// hashOf returns the index hash of a live handle.
func (t *attrTable) hashOf(h uint32) uint32 { return attrHash(t.ptrs[h]) }

// ptr returns the block behind a handle.
func (t *attrTable) ptr(h uint32) *bgp.Attrs { return t.ptrs[h] }

// origin returns the origin AS of the block behind a handle.
func (t *attrTable) origin(h uint32) handleOrigin { return t.origins[h] }

// acquire returns a's handle with one more reference, entering a if the
// shard does not hold it yet.
func (t *attrTable) acquire(a *bgp.Attrs) uint32 {
	hash := attrHash(a)
	if h, ok := t.idx.Find(hash, func(h uint32) bool { return t.ptrs[h] == a }); ok {
		t.refs[h]++
		return h
	}
	var o handleOrigin
	o.as, o.ok = a.ASPath.Origin()
	var h uint32
	if t.free != 0 {
		h = t.free - 1
		t.free = t.refs[h]
		t.ptrs[h], t.origins[h] = a, o
	} else {
		h = uint32(len(t.ptrs))
		t.ptrs = append(t.ptrs, a)
		t.refs = append(t.refs, 0)
		t.origins = append(t.origins, o)
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
