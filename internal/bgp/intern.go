package bgp

import (
	"bytes"
	"cmp"
	"sync/atomic"
	"unsafe"

	"moas/internal/arena"
)

// AttrsInterner is a hash-consing table for decoded path attribute blocks,
// keyed by their exact wire bytes. Real BGP update streams are dominated
// by a small set of distinct attribute blocks (the same AS-path announced
// for thousands of prefixes, re-announced across peers), so interning
// turns the per-update attribute decode — the allocation hot spot of an
// archive replay — into a hash probe that allocates nothing on a hit and
// returns one canonical *Attrs per distinct block.
//
// Misses are nearly allocation-free too: the block is decoded into a
// reusable scratch value and then committed into chunked arenas (Attrs
// values, table entries, path segments, AS numbers, communities, key
// bytes), so the steady-state cost of N distinct blocks is O(N) bytes
// in a handful of chunk allocations rather than several heap objects
// per block. The table itself is an arena.Index from the hash of the
// wire bytes to the block's number, and a block's entry names its wire
// bytes by chunk, offset and length: neither holds a pointer, so the
// garbage collector traces nothing per block but the Attrs value. For
// a bounded archive the arenas only grow — the footprint is proportional
// to the distinct blocks seen, which for BGP feeds is small and stable.
// An unbounded live feed is different: distinct blocks accrue forever
// (path churn, communities carrying timestamps), so every interner is
// capped at DefaultInternCap distinct blocks with epoch-based rebuilds —
// when the cap is hit the table and arenas are dropped wholesale and
// interning starts a fresh epoch.
// Blocks still referenced by route tables stay alive through those
// references (the GC reclaims each old chunk once its last holder
// drops), so resident memory plateaus at O(cap + live routes) instead
// of growing monotonically. Pointer equality remains sound within an
// epoch; across epochs the same wire bytes yield a different pointer
// and consumers fall back to Attrs.Equal, exactly as they already must
// for attrs from other feeders.
//
// Canonicalization is by AS width and wire bytes, not by decoded value:
// identical bytes interned at one width always yield the same pointer,
// so pointer equality is a sound fast path for "attributes unchanged".
// Each Intern call states the width of the block it hands in, because
// the same bytes decode differently under the other width; one interner
// therefore serves feeds of both widths, holding a block once per width
// it arrives in. Two different wire encodings of the same logical
// attributes (attribute reordering, 2- vs 4-octet AS width) produce
// different pointers; consumers that need full equality must fall back
// to Attrs.Equal when the pointers differ.
//
// Interned Attrs values are shared and must be treated as immutable by
// every holder.
//
// An interner has one writer: Intern and SetCap must not run
// concurrently with each other. In the engine that writer is the
// goroutine feeding it — Replay's framer or Run's source puller, which
// never run at once — and a checkpoint restore decodes through a private
// interner of its own. Len, Epochs and Bytes are safe to call from any
// goroutine while the writer runs.
//
// The zero value is an empty interner capped at DefaultInternCap.
type AttrsInterner struct {
	// capN bounds the distinct blocks held per epoch; 0 = DefaultInternCap.
	capN int64
	// Read by other goroutines (/stats), so atomic.
	n      atomic.Int64 // distinct blocks in the current epoch
	epochs atomic.Int64 // rebuilds performed (0 until the first cap hit)
	bytes  atomic.Int64 // approximate arena bytes committed this epoch

	// idx finds a block's number by a hash of its wire bytes (collisions,
	// and one block held at both AS widths, resolved by comparing width
	// and bytes); block i's key is entries.At(i) and its decoded value
	// blocks.At(i). The zero index and arenas allocate nothing until the
	// first commit of an epoch.
	idx     arena.Index
	entries arena.Chunks[internEntry]
	blocks  arena.Chunks[Attrs]
	keys    [][]byte // wire-byte chunks; only the last one has room

	scratch Attrs      // reusable decode target for misses
	agg     Aggregator // the scratch decode's aggregator storage

	// Arenas for the parts of a block. aggArena hands out interior
	// pointers, so a full chunk is replaced rather than grown (append
	// within capacity never moves the backing array). The slice arenas
	// hand out full-capacity sub-slices, so appends by holders cannot
	// bleed into neighboring allocations.
	aggArena []Aggregator
	segArena []Segment
	asnArena []ASN
	u32Arena []uint32
}

// internEntry is a block's key: its wire bytes, keys[chunk][off:off+n],
// and the AS width they were interned at.
type internEntry struct {
	chunk, off, n uint32
	asn4          bool
}

// DefaultInternCap is the number of distinct attribute blocks every
// interner holds per epoch. It bounds a months-long live feed's
// population. The largest benchmark table holds ≈ 133k, so the cap does
// not fire on the benchmark; a replay past it rolls epochs like a live
// feed, which stays correct through the Attrs.Equal fallback.
const DefaultInternCap = 1 << 20

// NewAttrsInterner returns an empty interner.
//
// Deprecated: use new(AttrsInterner). asn4 has no effect: each Intern
// call states the width of the block it hands in.
func NewAttrsInterner(asn4 bool) *AttrsInterner {
	return new(AttrsInterner)
}

// SetCap bounds the distinct blocks held per epoch: once Intern has
// committed n blocks, the next miss drops the whole table and arenas and
// starts a fresh epoch (see the type comment for why that is sound and
// what it bounds). Interners start at DefaultInternCap, which n <= 0
// restores; SetCap lets a test reach an epoch quickly.
func (in *AttrsInterner) SetCap(n int) {
	in.capN = int64(max(n, 0))
}

// Epochs returns the number of cap-triggered rebuilds so far. Safe from
// any goroutine.
func (in *AttrsInterner) Epochs() int { return int(in.epochs.Load()) }

// Bytes returns the approximate arena bytes committed in the current
// epoch — the tunable half of the interner's footprint (old epochs'
// chunks survive only through still-referenced blocks). Safe from any
// goroutine.
func (in *AttrsInterner) Bytes() int64 { return in.bytes.Load() }

// Per-block byte estimates for Bytes accounting, beside each block's
// wire bytes, path and communities; the index adds its cells as they are
// allocated. Chunk rounding is left out.
const (
	internAttrsBytes   = int(unsafe.Sizeof(Attrs{}))       // one Attrs value
	internEntryBytes   = int(unsafe.Sizeof(internEntry{})) // one table entry
	internSegmentBytes = int(unsafe.Sizeof(Segment{}))     // one path segment header
	internCellBytes    = 4                                 // one arena.Index cell
)

// Intern returns the canonical *Attrs for the attribute block wire,
// whose AS numbers are 4 octets wide when asn4 is set and 2 otherwise
// (see DecodeAttrsEx), decoding and caching it on first sight. A hit
// performs zero allocations; a miss amortizes to near zero through the
// arenas. The returned value is shared: callers must not mutate it.
func (in *AttrsInterner) Intern(wire []byte, asn4 bool) (*Attrs, error) {
	h := hashBytes(wire)
	if i, ok := in.idx.Find(h, func(i uint32) bool {
		e := in.entries.At(i)
		return e.asn4 == asn4 && bytes.Equal(in.key(e), wire)
	}); ok {
		return in.blocks.At(i), nil
	}
	in.scratch.Aggregator = &in.agg // decodeAttrsInto recycles it
	if err := in.scratch.decodeAttrsInto(wire, asn4); err != nil {
		return nil, err
	}
	if in.n.Load() >= cmp.Or(in.capN, DefaultInternCap) {
		// Cap hit: this commit lands in a fresh epoch. The table and
		// arenas go to the GC, kept alive only by still-referenced blocks.
		in.idx, in.entries, in.blocks, in.keys = arena.Index{}, arena.Chunks[internEntry]{}, arena.Chunks[Attrs]{}, nil
		in.aggArena, in.segArena, in.asnArena, in.u32Arena = nil, nil, nil, nil
		in.n.Store(0)
		in.bytes.Store(0)
		in.epochs.Add(1)
	}
	cells := in.idx.Cells()
	a := in.commit(wire, asn4, h)
	sz := internAttrsBytes + internEntryBytes + len(wire) + internCellBytes*(in.idx.Cells()-cells)
	for _, seg := range a.ASPath {
		sz += internSegmentBytes + 4*len(seg.ASes)
	}
	sz += 4 * len(a.Communities)
	in.n.Add(1)
	in.bytes.Add(int64(sz))
	return a, nil
}

// commit copies the scratch decode into the arenas as the next block and
// indexes it under hash h.
func (in *AttrsInterner) commit(wire []byte, asn4 bool, h uint32) *Attrs {
	i := in.blocks.Alloc()
	a := in.blocks.At(i)
	*a = in.scratch
	a.ASPath = in.copyPath(in.scratch.ASPath)
	a.Communities = in.copyU32(in.scratch.Communities)
	if in.scratch.Aggregator != nil {
		a.Aggregator = in.allocAgg(*in.scratch.Aggregator)
	}
	*in.entries.At(in.entries.Alloc()) = in.copyKey(wire, asn4)
	in.idx.Insert(h, i, in.hashOf)
	return a
}

// key returns the wire bytes of an entry.
func (in *AttrsInterner) key(e *internEntry) []byte {
	return in.keys[e.chunk][e.off : e.off+e.n]
}

// hashOf returns the hash block i was indexed under: what the index
// asks for when it grows.
func (in *AttrsInterner) hashOf(i uint32) uint32 {
	return hashBytes(in.key(in.entries.At(i)))
}

// Len returns the number of distinct attribute blocks held in the
// current epoch, a block interned at both widths counting twice (all
// blocks ever seen until the cap first fires). Safe from any goroutine.
func (in *AttrsInterner) Len() int {
	return int(in.n.Load())
}

// hashBytes is FNV-1a over b, folded to the 32-bit hash an arena.Index
// takes.
func hashBytes(b []byte) uint32 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return uint32(h ^ h>>32)
}

func (in *AttrsInterner) allocAgg(v Aggregator) *Aggregator {
	if len(in.aggArena) == cap(in.aggArena) {
		in.aggArena = make([]Aggregator, 0, 64)
	}
	in.aggArena = append(in.aggArena, v)
	return &in.aggArena[len(in.aggArena)-1]
}

// copyPath deep-copies p into the segment and ASN arenas. The segments of
// one path are contiguous, so the Path itself is an arena sub-slice too.
func (in *AttrsInterner) copyPath(p Path) Path {
	if p == nil {
		return nil
	}
	if len(in.segArena)+len(p) > cap(in.segArena) {
		in.segArena = make([]Segment, 0, max(512, len(p)))
	}
	off := len(in.segArena)
	for _, seg := range p {
		in.segArena = append(in.segArena, Segment{Type: seg.Type, ASes: in.copyASNs(seg.ASes)})
	}
	end := len(in.segArena)
	return Path(in.segArena[off:end:end])
}

func (in *AttrsInterner) copyASNs(v []ASN) []ASN {
	if v == nil {
		return nil
	}
	if len(in.asnArena)+len(v) > cap(in.asnArena) {
		in.asnArena = make([]ASN, 0, max(4096, len(v)))
	}
	off := len(in.asnArena)
	in.asnArena = append(in.asnArena, v...)
	end := len(in.asnArena)
	return in.asnArena[off:end:end]
}

func (in *AttrsInterner) copyU32(v []uint32) []uint32 {
	if len(v) == 0 {
		return nil
	}
	if len(in.u32Arena)+len(v) > cap(in.u32Arena) {
		in.u32Arena = make([]uint32, 0, max(1024, len(v)))
	}
	off := len(in.u32Arena)
	in.u32Arena = append(in.u32Arena, v...)
	end := len(in.u32Arena)
	return in.u32Arena[off:end:end]
}

// copyKey copies b into the key chunks and returns its entry.
func (in *AttrsInterner) copyKey(b []byte, asn4 bool) internEntry {
	if n := len(in.keys); n == 0 || len(in.keys[n-1])+len(b) > cap(in.keys[n-1]) {
		in.keys = append(in.keys, make([]byte, 0, max(1<<16, len(b))))
	}
	last := len(in.keys) - 1
	off := len(in.keys[last])
	in.keys[last] = append(in.keys[last], b...)
	return internEntry{chunk: uint32(last), off: uint32(off), n: uint32(len(b)), asn4: asn4}
}
