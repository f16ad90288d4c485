package bgp

import (
	"bytes"
	"sync"
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
// Intern is safe for concurrent use: the table is striped by hash into
// independently locked buckets, each with its own chain table, scratch
// decode value and arenas, so parallel decode workers interning disjoint
// blocks rarely contend and workers interning the same block serialize
// only on that block's stripe. The one-canonical-pointer-per-wire-block
// invariant holds across goroutines within an epoch: a block's stripe is
// a pure function of its bytes, and that stripe's mutex makes each
// insert a read-check-commit critical section. Cap-triggered epoch
// rebuilds take a writer lock that excludes every in-flight Intern, so
// an epoch flip is globally atomic; under concurrency the cap is
// enforced to within the number of simultaneously committing workers
// (each checks the cap before its own commit).
type AttrsInterner struct {
	asn4 bool
	// capN bounds the distinct blocks held per epoch; 0 = unbounded.
	capN   atomic.Int64
	n      atomic.Int64 // distinct blocks in the current epoch
	epochs atomic.Int64 // rebuilds performed (0 until the first cap hit)
	bytes  atomic.Int64 // approximate arena bytes committed this epoch

	// epochMu coordinates cap rebuilds with in-flight interning: Intern
	// holds the read side while it probes and commits into a stripe, the
	// rebuild takes the write side and resets every stripe at once. Lock
	// order is epochMu before stripe.mu, always.
	epochMu sync.RWMutex
	stripes [internStripes]internStripe
}

// internStripes is the lock-striping factor: a power of two at or above
// the decode-worker counts the replay pipeline runs (GOMAXPROCS), so two
// workers interning different blocks rarely share a mutex. Higher counts
// buy little — the hit-path critical section is a single hash probe —
// and cost per-stripe arena and table overhead on every engine.
const internStripes = 16

// internStripe is one independently locked slice of the table. Each
// stripe owns a full copy of the interner's machinery — chain map, entry
// table, scratch decode value and arenas — so stripes never share
// mutable state and a stripe's mutex is the only synchronization a
// probe or commit needs (beyond the epoch read lock).
type internStripe struct {
	mu sync.Mutex
	// m maps an FNV-1a hash of the wire bytes to the head of a chain of
	// entries (collisions resolved by byte comparison). Indexing entries
	// by position keeps the table pointer-free and the probe alloc-free.
	// Created lazily on the stripe's first commit (probing a nil map is
	// a miss), so constructing an interner allocates nothing per stripe
	// and stripes an archive never hashes into stay empty.
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
// what it bounds). n <= 0 removes the cap. Safe to call concurrently
// with Intern; the live daemon sets it once at engine construction.
func (in *AttrsInterner) SetCap(n int) {
	if n < 0 {
		n = 0
	}
	in.capN.Store(int64(n))
}

// Epochs returns the number of cap-triggered rebuilds so far. Safe to
// call concurrently with Intern.
func (in *AttrsInterner) Epochs() int { return int(in.epochs.Load()) }

// Bytes returns the approximate arena bytes committed in the current
// epoch — the tunable half of the interner's footprint (old epochs'
// chunks survive only through still-referenced blocks). Safe to call
// concurrently with Intern.
func (in *AttrsInterner) Bytes() int64 { return in.bytes.Load() }

// Per-block byte estimates for Bytes accounting. Exact sizes depend on
// architecture and chunk rounding; these track the dominant terms.
const (
	internAttrsBytes   = 96 // one Attrs value
	internSegmentBytes = 32 // one path segment header
	internEntryBytes   = 48 // one table entry + map slot
)

// rebuildAtCap starts a fresh epoch: under the epoch writer lock (which
// excludes every in-flight Intern) each stripe's table and arenas are
// released to the GC (kept alive only by still-referenced blocks) and
// interning restarts empty. The cap is re-checked under the lock so
// that when several workers hit it together only the first rebuilds —
// the rest see the already-reset table and retry into the new epoch.
func (in *AttrsInterner) rebuildAtCap() {
	in.epochMu.Lock()
	defer in.epochMu.Unlock()
	c := in.capN.Load()
	if c <= 0 || in.n.Load() < c {
		return
	}
	for i := range in.stripes {
		s := &in.stripes[i]
		s.m = nil
		s.entries = nil
		s.attrsArena = nil
		s.aggArena = nil
		s.segArena = nil
		s.asnArena = nil
		s.u32Arena = nil
		s.keyArena = nil
	}
	in.n.Store(0)
	in.bytes.Store(0)
	in.epochs.Add(1)
}

// Intern returns the canonical *Attrs for the attribute block wire,
// decoding and caching it on first sight. A hit performs zero
// allocations; a miss amortizes to near zero through the arenas. The
// returned value is shared: callers must not mutate it. Safe for
// concurrent use (see the type comment).
func (in *AttrsInterner) Intern(wire []byte) (*Attrs, error) {
	h := hashBytes(wire)
	// The top hash bits pick the stripe; the chain map consumes the rest.
	s := &in.stripes[(h>>57)&(internStripes-1)]
	for {
		in.epochMu.RLock()
		s.mu.Lock()
		head, ok := s.m[h]
		if ok {
			for i := head; i >= 0; i = s.entries[i].next {
				if bytes.Equal(s.entries[i].wire, wire) {
					a := s.entries[i].attrs
					s.mu.Unlock()
					in.epochMu.RUnlock()
					return a, nil
				}
			}
		} else {
			head = -1
		}
		if err := s.scratch.decodeAttrsInto(wire, in.asn4); err != nil {
			s.mu.Unlock()
			in.epochMu.RUnlock()
			return nil, err
		}
		if c := in.capN.Load(); c > 0 && in.n.Load() >= c {
			// Cap hit: this commit must land in a fresh epoch. Release
			// both locks (the rebuild needs the epoch writer side), flip
			// the epoch, and retry from the top — the re-probe misses in
			// the empty table and the re-decode is the rare-path cost of
			// keeping the hit path lock-cheap.
			s.mu.Unlock()
			in.epochMu.RUnlock()
			in.rebuildAtCap()
			continue
		}
		a := s.commit(wire, h, head)
		sz := internAttrsBytes + internEntryBytes + len(wire)
		for _, seg := range a.ASPath {
			sz += internSegmentBytes + 4*len(seg.ASes)
		}
		sz += 4 * len(a.Communities)
		in.n.Add(1)
		in.bytes.Add(int64(sz))
		s.mu.Unlock()
		in.epochMu.RUnlock()
		return a, nil
	}
}

// commit copies the stripe's scratch decode into the stripe arenas and
// links the new entry. Caller holds s.mu (and the epoch read lock).
func (s *internStripe) commit(wire []byte, h uint64, head int32) *Attrs {
	if s.m == nil {
		// First commit into this stripe (or this epoch): size for the
		// typical per-stripe share of a feed's distinct blocks so the
		// table reaches steady state without growth re-allocations.
		s.m = make(map[uint64]int32, 256)
		s.entries = make([]internEntry, 0, 256)
	}
	a := s.allocAttrs()
	*a = s.scratch
	a.ASPath = s.copyPath(s.scratch.ASPath)
	a.Communities = s.copyU32(s.scratch.Communities)
	if s.scratch.Aggregator != nil {
		a.Aggregator = s.allocAgg(*s.scratch.Aggregator)
	}
	s.entries = append(s.entries, internEntry{wire: s.copyKey(wire), attrs: a, next: head})
	s.m[h] = int32(len(s.entries) - 1)
	return a
}

// Len returns the number of distinct attribute blocks held in the
// current epoch (all blocks ever seen when no cap is set). Safe to call
// concurrently with Intern.
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

func (s *internStripe) allocAttrs() *Attrs {
	if len(s.attrsArena) == cap(s.attrsArena) {
		s.attrsArena = make([]Attrs, 0, 512)
	}
	s.attrsArena = append(s.attrsArena, Attrs{})
	return &s.attrsArena[len(s.attrsArena)-1]
}

func (s *internStripe) allocAgg(v Aggregator) *Aggregator {
	if len(s.aggArena) == cap(s.aggArena) {
		s.aggArena = make([]Aggregator, 0, 64)
	}
	s.aggArena = append(s.aggArena, v)
	return &s.aggArena[len(s.aggArena)-1]
}

// copyPath deep-copies p into the segment and ASN arenas. The segments of
// one path are contiguous, so the Path itself is an arena sub-slice too.
func (s *internStripe) copyPath(p Path) Path {
	if p == nil {
		return nil
	}
	if len(s.segArena)+len(p) > cap(s.segArena) {
		s.segArena = make([]Segment, 0, max(512, len(p)))
	}
	off := len(s.segArena)
	for _, seg := range p {
		s.segArena = append(s.segArena, Segment{Type: seg.Type, ASes: s.copyASNs(seg.ASes)})
	}
	end := len(s.segArena)
	return Path(s.segArena[off:end:end])
}

func (s *internStripe) copyASNs(v []ASN) []ASN {
	if v == nil {
		return nil
	}
	if len(s.asnArena)+len(v) > cap(s.asnArena) {
		s.asnArena = make([]ASN, 0, max(4096, len(v)))
	}
	off := len(s.asnArena)
	s.asnArena = append(s.asnArena, v...)
	end := len(s.asnArena)
	return s.asnArena[off:end:end]
}

func (s *internStripe) copyU32(v []uint32) []uint32 {
	if v == nil {
		return nil
	}
	if len(s.u32Arena)+len(v) > cap(s.u32Arena) {
		s.u32Arena = make([]uint32, 0, max(1024, len(v)))
	}
	off := len(s.u32Arena)
	s.u32Arena = append(s.u32Arena, v...)
	end := len(s.u32Arena)
	return s.u32Arena[off:end:end]
}

func (s *internStripe) copyKey(b []byte) []byte {
	if len(s.keyArena)+len(b) > cap(s.keyArena) {
		s.keyArena = make([]byte, 0, max(1<<16, len(b)))
	}
	off := len(s.keyArena)
	s.keyArena = append(s.keyArena, b...)
	end := len(s.keyArena)
	return s.keyArena[off:end:end]
}
