// Package ptable is the prefix index under the streaming hot path: a
// 64-bit prefix hash (one mix picks both the engine shard and the table
// slot) and an open-addressed, pointer-free table that maps a prefix to
// a dense id with one caller-defined value and two caller bits per id,
// built on the index and the chunked arena of package arena. A Go map
// keyed on the 18-byte bgp.Prefix spends most of a route op hashing,
// comparing and chasing bucket pointers across a million-entry working
// set; here a lookup is one probe into a 4-byte slot array plus one load
// of the id's entry, and nothing in the table is visible to the garbage
// collector except a few hundred chunk headers.
package ptable

import (
	"encoding/binary"

	"moas/internal/arena"
	"moas/internal/bgp"
)

// Hash returns the 64-bit hash of a canonical prefix. The high word
// picks the shard (Shard), the low word addresses the table slot (the h
// argument of Find and Insert), so the two choices are independent.
func Hash(p bgp.Prefix) uint64 {
	if p.Family() == bgp.FamilyIPv4 {
		return mix(pack4(p))
	}
	a := p.Addr16()
	h := mix(binary.BigEndian.Uint64(a[:8]) + 0x9e3779b97f4a7c15)
	h = mix(h ^ binary.BigEndian.Uint64(a[8:]))
	return mix(h ^ uint64(p.Bits())<<8 ^ uint64(p.Family()))
}

// mix is the splitmix64 finalizer: a bijection on uint64 whose every
// output bit depends on every input bit.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Shard maps a Hash onto one of n shards by its high word.
func Shard(h uint64, n int) int {
	return int((h >> 32) * uint64(n) >> 32)
}

// Entry keys. An IPv4 prefix packs into the key itself; any other
// prefix keeps its full 18 bytes in the side arena and the key carries
// the arena index. A recycled id's key chains the free list. Live keys
// are never zero. No kind uses bits 60-61: they hold the id's mark
// (SetMark), which every comparison and hash of the key masks out.
const (
	kindShift = 62
	kindV4    = 1
	kindSide  = 2
	kindFree  = 3

	markShift = 60
	markMask  = 3 << markShift
)

func kind(key uint64) uint64 { return key >> kindShift }

func pack4(p bgp.Prefix) uint64 {
	return kindV4<<kindShift | uint64(p.Uint32())<<8 | uint64(p.Bits())
}

type entry[V any] struct {
	key uint64
	val V
}

// Table maps prefixes to dense uint32 ids, each carrying one V and a
// two-bit mark. Ids are recycled: a deleted id is handed to the next
// Insert with a zeroed V and mark.
// An arena.Index finds a prefix's id; the entries it points at never move.
// Not safe for concurrent use.
type Table[V any] struct {
	idx      arena.Index
	ents     arena.Chunks[entry[V]]
	side     arena.Chunks[bgp.Prefix]
	sideFree []uint32
	freeID   uint32 // head of the recycled-id chain plus one; 0 when empty
}

// Len returns the number of prefixes in the table.
func (t *Table[V]) Len() int { return t.idx.Len() }

// Carved returns the number of ids ever carved — live entries plus the
// recycled chain, i.e. the entry arena's retained footprint.
func (t *Table[V]) Carved() int { return t.ents.Len() }

// Find returns p's id. h must be uint32(Hash(p)).
func (t *Table[V]) Find(p bgp.Prefix, h uint32) (uint32, bool) {
	if p.Family() == bgp.FamilyIPv4 {
		key := pack4(p)
		return t.idx.Find(h, func(id uint32) bool { return t.ents.At(id).key&^markMask == key })
	}
	return t.idx.Find(h, func(id uint32) bool {
		key := t.ents.At(id).key
		return kind(key) == kindSide && *t.side.At(uint32(key)) == p
	})
}

// Insert adds p, which must be absent, and returns its id; the id's
// value is zero. h must be uint32(Hash(p)).
func (t *Table[V]) Insert(p bgp.Prefix, h uint32) uint32 {
	var id uint32
	if t.freeID != 0 {
		id = t.freeID - 1
		t.freeID = uint32(t.ents.At(id).key)
	} else {
		id = t.ents.Alloc()
	}
	e := t.ents.At(id)
	if p.Family() == bgp.FamilyIPv4 {
		e.key = pack4(p)
	} else {
		var si uint32
		if n := len(t.sideFree); n > 0 {
			si, t.sideFree = t.sideFree[n-1], t.sideFree[:n-1]
		} else {
			si = t.side.Alloc()
		}
		*t.side.At(si) = p
		e.key = kindSide<<kindShift | uint64(si)
	}
	t.idx.Insert(h, id, t.hashOf)
	return id
}

// hashOf returns the slot hash of a live id: what the index asks for
// when it grows or shifts a cluster back.
func (t *Table[V]) hashOf(id uint32) uint32 {
	key := t.ents.At(id).key &^ markMask
	if kind(key) == kindSide {
		return uint32(Hash(*t.side.At(uint32(key))))
	}
	return uint32(mix(key)) // Hash of an IPv4 prefix is the mix of its key
}

// Delete removes a live id and recycles it.
func (t *Table[V]) Delete(id uint32) {
	e := t.ents.At(id)
	t.idx.Delete(t.hashOf(id), id, t.hashOf)
	if kind(e.key) == kindSide {
		t.sideFree = append(t.sideFree, uint32(e.key))
	}
	var zero V
	e.key, e.val = kindFree<<kindShift|uint64(t.freeID), zero
	t.freeID = id + 1
}

// Mark returns the two-bit mark of a live id: caller state that costs
// the entry no byte, because it rides in spare bits of the key.
func (t *Table[V]) Mark(id uint32) uint8 {
	return uint8(t.ents.At(id).key >> markShift & 3)
}

// SetMark sets the mark of a live id to m&3.
func (t *Table[V]) SetMark(id uint32, m uint8) {
	e := t.ents.At(id)
	e.key = e.key&^markMask | uint64(m&3)<<markShift
}

// At returns the value of a live id. The pointer stays valid until the
// id is deleted.
func (t *Table[V]) At(id uint32) *V { return &t.ents.At(id).val }

// Prefix returns the prefix of a live id.
func (t *Table[V]) Prefix(id uint32) bgp.Prefix {
	key := t.ents.At(id).key
	if kind(key) == kindV4 {
		return bgp.PrefixFromUint32(uint32(key>>8), uint8(key))
	}
	return *t.side.At(uint32(key))
}

// Walk visits every live id in id order. fn may read and write values
// but must not insert or delete. Return false to stop.
func (t *Table[V]) Walk(fn func(id uint32, p bgp.Prefix) bool) {
	for id := uint32(0); int(id) < t.ents.Len(); id++ {
		if kind(t.ents.At(id).key) == kindFree {
			continue
		}
		if !fn(id, t.Prefix(id)) {
			return
		}
	}
}
