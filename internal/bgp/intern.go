package bgp

import (
	"bytes"
	"sync/atomic"
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
// values, path segments, AS numbers, communities, key bytes), so the
// steady-state cost of N distinct blocks is O(N) bytes in a handful of
// chunk allocations rather than several heap objects per block. For a
// bounded archive the arenas only grow — the footprint is proportional
// to the distinct blocks seen, which for BGP feeds is small and stable.
// An unbounded live feed is different: distinct blocks accrue forever
// (path churn, communities carrying timestamps), so SetCap bounds the
// table with epoch-based rebuilds — when the cap is hit the table and
// arenas are dropped wholesale and interning starts a fresh epoch.
// Blocks still referenced by route tables stay alive through those
// references (the GC reclaims each old chunk once its last holder
// drops), so resident memory plateaus at O(cap + live routes) instead
// of growing monotonically. Pointer equality remains sound within an
// epoch; across epochs the same wire bytes yield a different pointer
// and consumers fall back to Attrs.Equal, exactly as they already must
// for attrs from other feeders.
//
// Canonicalization is by wire bytes, not by decoded value: identical wire
// bytes always yield the same pointer, so pointer equality is a sound
// fast path for "attributes unchanged". Two different wire encodings of
// the same logical attributes (attribute reordering, 2- vs 4-octet AS
// width) produce different pointers; consumers that need full equality
// must fall back to Attrs.Equal when the pointers differ.
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
type AttrsInterner struct {
	asn4 bool
	// capN bounds the distinct blocks held per epoch; 0 = unbounded.
	capN int64
	// Read by other goroutines (/stats), so atomic.
	n      atomic.Int64 // distinct blocks in the current epoch
	epochs atomic.Int64 // rebuilds performed (0 until the first cap hit)
	bytes  atomic.Int64 // approximate arena bytes committed this epoch

	// m maps an FNV-1a hash of the wire bytes to the head of a chain of
	// entries (collisions resolved by byte comparison). Indexing entries
	// by position keeps the table pointer-free and the probe alloc-free.
	// Created lazily on the first commit of an epoch (probing a nil map is
	// a miss), so constructing an interner allocates nothing.
	m       map[uint64]int32
	entries []internEntry

	scratch Attrs // reusable decode target for misses

	// Arenas. attrsArena and aggArena hand out interior pointers, so a
	// full chunk is replaced rather than grown (append within capacity
	// never moves the backing array). The slice arenas hand out
	// full-capacity sub-slices, so appends by holders cannot bleed into
	// neighboring allocations.
	attrsArena []Attrs
	aggArena   []Aggregator
	segArena   []Segment
	asnArena   []ASN
	u32Arena   []uint32
	keyArena   []byte
}

type internEntry struct {
	wire  []byte // exact attribute block bytes (keyArena sub-slice)
	attrs *Attrs
	next  int32 // chain link, -1 terminates
}

// NewAttrsInterner returns an empty interner. asn4 selects the 4-octet
// AS wire encoding (see DecodeAttrsEx); an interner is bound to one
// encoding because the same bytes decode differently under the other.
func NewAttrsInterner(asn4 bool) *AttrsInterner {
	return &AttrsInterner{asn4: asn4}
}

// ASN4 reports the AS wire encoding the interner decodes with. Sources
// that synthesize attribute blocks (the RIS Live client encodes decoded
// JSON back to wire form before interning) must encode with the same
// width or identical attributes would never hit the table.
func (in *AttrsInterner) ASN4() bool { return in.asn4 }

// SetCap bounds the distinct blocks held per epoch: once Intern has
// committed n blocks, the next miss drops the whole table and arenas and
// starts a fresh epoch (see the type comment for why that is sound and
// what it bounds). n <= 0 removes the cap. The engine sets it once at
// construction.
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

// Per-block byte estimates for Bytes accounting. Exact sizes depend on
// architecture and chunk rounding; these track the dominant terms.
const (
	internAttrsBytes   = 96 // one Attrs value
	internSegmentBytes = 32 // one path segment header
	internEntryBytes   = 48 // one table entry + map slot
)

// Intern returns the canonical *Attrs for the attribute block wire,
// decoding and caching it on first sight. A hit performs zero
// allocations; a miss amortizes to near zero through the arenas. The
// returned value is shared: callers must not mutate it.
func (in *AttrsInterner) Intern(wire []byte) (*Attrs, error) {
	h := hashBytes(wire)
	head, ok := in.m[h]
	if !ok {
		head = -1
	}
	for i := head; i >= 0; i = in.entries[i].next {
		if bytes.Equal(in.entries[i].wire, wire) {
			return in.entries[i].attrs, nil
		}
	}
	if err := in.scratch.decodeAttrsInto(wire, in.asn4); err != nil {
		return nil, err
	}
	if in.capN > 0 && in.n.Load() >= in.capN {
		// Cap hit: this commit lands in a fresh epoch. The table and
		// arenas go to the GC, kept alive only by still-referenced blocks.
		in.m, in.entries = nil, nil
		in.attrsArena, in.aggArena, in.segArena = nil, nil, nil
		in.asnArena, in.u32Arena, in.keyArena = nil, nil, nil
		in.n.Store(0)
		in.bytes.Store(0)
		in.epochs.Add(1)
		head = -1
	}
	a := in.commit(wire, h, head)
	sz := internAttrsBytes + internEntryBytes + len(wire)
	for _, seg := range a.ASPath {
		sz += internSegmentBytes + 4*len(seg.ASes)
	}
	sz += 4 * len(a.Communities)
	in.n.Add(1)
	in.bytes.Add(int64(sz))
	return a, nil
}

// commit copies the scratch decode into the arenas and links the new
// entry at the head of hash h's chain.
func (in *AttrsInterner) commit(wire []byte, h uint64, head int32) *Attrs {
	if in.m == nil {
		// First commit of this epoch: size for a typical feed's distinct
		// blocks so the table reaches steady state without growth
		// re-allocations.
		in.m = make(map[uint64]int32, 4096)
		in.entries = make([]internEntry, 0, 4096)
	}
	a := in.allocAttrs()
	*a = in.scratch
	a.ASPath = in.copyPath(in.scratch.ASPath)
	a.Communities = in.copyU32(in.scratch.Communities)
	if in.scratch.Aggregator != nil {
		a.Aggregator = in.allocAgg(*in.scratch.Aggregator)
	}
	in.entries = append(in.entries, internEntry{wire: in.copyKey(wire), attrs: a, next: head})
	in.m[h] = int32(len(in.entries) - 1)
	return a
}

// Len returns the number of distinct attribute blocks held in the
// current epoch (all blocks ever seen when no cap is set). Safe from any
// goroutine.
func (in *AttrsInterner) Len() int {
	return int(in.n.Load())
}

// hashBytes is FNV-1a over the wire bytes.
func hashBytes(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

func (in *AttrsInterner) allocAttrs() *Attrs {
	if len(in.attrsArena) == cap(in.attrsArena) {
		in.attrsArena = make([]Attrs, 0, 512)
	}
	in.attrsArena = append(in.attrsArena, Attrs{})
	return &in.attrsArena[len(in.attrsArena)-1]
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
	if v == nil {
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

func (in *AttrsInterner) copyKey(b []byte) []byte {
	if len(in.keyArena)+len(b) > cap(in.keyArena) {
		in.keyArena = make([]byte, 0, max(1<<16, len(b)))
	}
	off := len(in.keyArena)
	in.keyArena = append(in.keyArena, b...)
	end := len(in.keyArena)
	return in.keyArena[off:end:end]
}
