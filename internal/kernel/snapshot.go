package kernel

import (
	"cmp"
	"fmt"
	"maps"
	"slices"

	"moas/internal/bgp"
	"moas/internal/core"
	"moas/internal/ptable"
)

// SnapshotVersion is the current snapshot format version; bump it on
// incompatible changes to the wire structs below. Version 4 dropped the
// per-prefix event history that versions 1-3 carried in every prefix
// entry (and versions 1 and 2 the retained event log after the spans):
// the events a kernel emits are its caller's to keep. The decoder reads
// this version alone and refuses the older ones as retired.
const SnapshotVersion = 4

// Snapshot is the image of a kernel: every tracked prefix state, the
// lifetime conflict records, the closed activation spans and the event
// accounting. It is typed data — prefixes are bgp.Prefix values, and its
// one encoding, the binary codec (binary.go), never sees text — and is
// prefix-disjoint mergeable (Merge), which is how the sharded engine
// composes one engine-wide snapshot out of its per-shard kernels.
type Snapshot struct {
	Version int
	// Prefixes holds one entry per tracked prefix, in Prefix.Compare order.
	Prefixes []PrefixSnap
	// Conflicts holds the lifetime records, in Prefix.Compare order.
	Conflicts []ConflictSnap
	// ClosedSpans are the ended activation spans, one entry per
	// activation, in (start, end) order.
	ClosedSpans []SpanSnap
	// Events is the lifecycle-event count emitted so far.
	Events int
}

// PrefixSnap is one prefix's serialized state. Class values are the
// core.Class constants, which are version-stable by construction.
type PrefixSnap struct {
	Prefix  bgp.Prefix
	Origins []bgp.ASN
	Class   uint8
	Seq     uint64
	Since   int
}

// ConflictSnap is one lifetime record's (core.Conflict) serialized form.
type ConflictSnap struct {
	Prefix       bgp.Prefix
	FirstDay     int
	LastDay      int
	DaysObserved int
	OriginsEver  []bgp.ASN
	ClassDays    []int
}

// SpanSnap is one ended activation span: what an image lists once per
// activation and what the kernel counts per distinct value.
type SpanSnap struct {
	Start int
	End   int
}

// validClass bounds snapshot class bytes: anything past the known
// classes would index-panic ClassDays/ByClass accumulators downstream,
// so restore rejects it instead of deferring the crash.
func validClass(c uint8) error {
	if int(c) >= core.NumClasses {
		return fmt.Errorf("kernel: snapshot class %d, want < %d", c, core.NumClasses)
	}
	return nil
}

// validPrefix rejects the zero Prefix, which an image built in memory can
// carry: it would encode to bytes no decoder accepts.
func validPrefix(p bgp.Prefix) error {
	if !p.IsValid() {
		return fmt.Errorf("kernel: snapshot entry without a prefix")
	}
	return nil
}

// Snapshot images the kernel's complete state. The result shares no
// mutable memory with the kernel (origin sets are copied), so it stays
// valid while the kernel keeps running. It allocates by the table: slices
// are sized from the table's counts, the one-origin sets of
// lifecycle-free prefixes — nearly all of a real table — are carved from
// a single array, and the origin sets of the rest from a few.
func (k *Kernel) Snapshot() *Snapshot {
	s := &Snapshot{Version: SnapshotVersion, Events: k.events}
	s.Prefixes = slices.Grow(s.Prefixes, k.tab.Len())
	s.Conflicts = slices.Grow(s.Conflicts, k.conflicts)
	single := make([]bgp.ASN, 0, k.tab.Len())
	var origins []bgp.ASN
	k.tab.Walk(func(id uint32, p bgp.Prefix) bool {
		ps := PrefixSnap{Prefix: p}
		switch r, flags := k.tab.At(id), k.tab.Mark(id); {
		case flags&recExt != 0:
			st := k.exts.At(r.val)
			if c := *k.recs.At(r.val); c != nil {
				s.Conflicts = append(s.Conflicts, ConflictSnap{
					Prefix:       c.Prefix,
					FirstDay:     c.FirstDay,
					LastDay:      c.LastDay,
					DaysObserved: c.DaysObserved,
					OriginsEver:  append([]bgp.ASN(nil), c.OriginsEver...),
					ClassDays:    append([]int(nil), c.ClassDays[:]...),
				})
			}
			ps.Origins = append(carveASNs(&origins, len(st.origins)), st.origins...)
			ps.Class, ps.Seq, ps.Since = uint8(st.class), st.seq, st.since
		case flags&recOrigin != 0:
			single = append(single, bgp.ASN(r.val))
			ps.Origins = single[len(single)-1 : len(single) : len(single)]
		default:
			return true // an id held for its routes only carries no state
		}
		s.Prefixes = append(s.Prefixes, ps)
		return true
	})
	slices.SortFunc(s.Prefixes, comparePrefixSnaps)
	slices.SortFunc(s.Conflicts, compareConflictSnaps)
	// Ended activations are listed one by one in (start, end) order, the
	// order Merge imposes: sorting the distinct spans gives it.
	ended := 0
	for _, n := range k.closed {
		ended += n
	}
	s.ClosedSpans = slices.Grow(s.ClosedSpans, ended)
	for _, sp := range slices.SortedFunc(maps.Keys(k.closed), compareSpanSnaps) {
		for n := k.closed[sp]; n > 0; n-- {
			s.ClosedSpans = append(s.ClosedSpans, sp)
		}
	}
	return s
}

// Restore loads a snapshot into an empty kernel (one fresh from New).
// Active conflicts are re-derived from origin-set cardinality, the
// invariant the state machine maintains.
func (k *Kernel) Restore(s *Snapshot) error { return k.RestorePart(s, 0, 1) }

// RestorePart is Restore for one kernel of a sharded set, the inverse of
// Merge: it loads the prefix states and conflicts ptable.Shard assigns
// to partition part of parts. Spans and the event count are not
// prefix-keyed state machines — they only ever feed engine-wide
// concatenations — so they land on partition 0 wholesale. Nothing the
// kernel retains aliases the snapshot.
func (k *Kernel) RestorePart(s *Snapshot, part, parts int) error {
	if s.Version != SnapshotVersion {
		return fmt.Errorf("kernel: snapshot version %d, want %d", s.Version, SnapshotVersion)
	}
	if k.tab.Len() != 0 || k.events != 0 {
		return fmt.Errorf("kernel: restore into non-empty kernel")
	}
	for i := range s.Prefixes {
		ps := &s.Prefixes[i]
		h := ptable.Hash(ps.Prefix)
		if ptable.Shard(h, parts) != part {
			continue
		}
		if err := k.restorePrefix(ps, uint32(h)); err != nil {
			return err
		}
	}
	for i := range s.Conflicts {
		cs := &s.Conflicts[i]
		if ptable.Shard(ptable.Hash(cs.Prefix), parts) != part {
			continue
		}
		if err := k.restoreConflict(cs); err != nil {
			return err
		}
	}
	if part != 0 {
		return nil
	}
	for _, sp := range s.ClosedSpans {
		// No calendar or UTC day number comes near 32 bits, and a bound on
		// the days bounds the distinct spans a hostile image can plant.
		if sp.Start != int(int32(sp.Start)) || sp.End != int(int32(sp.End)) {
			return fmt.Errorf("kernel: snapshot span [%d, %d] outside 32-bit days", sp.Start, sp.End)
		}
		k.closed[sp]++
	}
	k.events = s.Events
	return nil
}

// restorePrefix loads one prefix state; h is uint32(ptable.Hash) of it.
func (k *Kernel) restorePrefix(ps *PrefixSnap, h uint32) error {
	if err := cmp.Or(validPrefix(ps.Prefix), validClass(ps.Class)); err != nil {
		return err
	}
	if _, dup := k.tab.Find(ps.Prefix, h); dup {
		return fmt.Errorf("kernel: snapshot repeats prefix %v", ps.Prefix)
	}
	lifecycle := ps.Seq != 0 || ps.Since != 0 || ps.Class != 0
	if !lifecycle && len(ps.Origins) == 0 {
		return nil // a stateless prefix is simply not tracked
	}
	id := k.tab.Insert(ps.Prefix, h)
	if !lifecycle && len(ps.Origins) == 1 {
		k.tab.At(id).val = uint32(ps.Origins[0])
		k.tab.SetMark(id, recOrigin)
		return nil
	}
	st := k.promote(id)
	*st = ext{
		origins:  append([]bgp.ASN(nil), ps.Origins...),
		class:    core.Class(ps.Class),
		activeAt: -1,
		seq:      ps.Seq,
		since:    ps.Since,
	}
	if len(st.origins) >= 2 {
		st.activeAt = int32(len(k.active))
		k.active = append(k.active, id)
	}
	return nil
}

// restoreConflict loads one lifetime record under its prefix's ext index,
// entering a prefix the image gave no state of its own; a repeated prefix
// keeps its last record.
func (k *Kernel) restoreConflict(cs *ConflictSnap) error {
	if err := validPrefix(cs.Prefix); err != nil {
		return err
	}
	c := &core.Conflict{
		Prefix:       cs.Prefix,
		FirstDay:     cs.FirstDay,
		LastDay:      cs.LastDay,
		DaysObserved: cs.DaysObserved,
		OriginsEver:  append([]bgp.ASN(nil), cs.OriginsEver...),
	}
	if len(cs.ClassDays) > len(c.ClassDays) {
		return fmt.Errorf("kernel: snapshot conflict %v has %d classes, want <= %d",
			cs.Prefix, len(cs.ClassDays), len(c.ClassDays))
	}
	copy(c.ClassDays[:], cs.ClassDays)
	h := uint32(ptable.Hash(cs.Prefix))
	id, ok := k.tab.Find(cs.Prefix, h)
	if !ok {
		id = k.tab.Insert(cs.Prefix, h)
	}
	if k.tab.Mark(id)&recExt == 0 {
		k.promote(id)
	}
	slot := k.recs.At(k.tab.At(id).val)
	if *slot == nil {
		k.conflicts++
	}
	*slot = c
	return nil
}

// Merge combines prefix-disjoint snapshots (the sharded engine's case,
// where each shard's kernel owns a hash partition of the prefix space)
// into one. Prefix states merge in order, conflicts and spans
// concatenate and event counts add; every section ends in its one
// canonical order, so the merged image, and with it checkpoint bytes, do
// not depend on how the prefix space was partitioned.
func Merge(parts []*Snapshot) *Snapshot {
	out := &Snapshot{Version: SnapshotVersion}
	prefixes := make([][]PrefixSnap, len(parts))
	for i, p := range parts {
		prefixes[i] = p.Prefixes
		out.Conflicts = append(out.Conflicts, p.Conflicts...)
		out.ClosedSpans = append(out.ClosedSpans, p.ClosedSpans...)
		out.Events += p.Events
	}
	out.Prefixes = MergeSorted(prefixes, comparePrefixSnaps)
	slices.SortFunc(out.Conflicts, compareConflictSnaps)
	slices.SortFunc(out.ClosedSpans, compareSpanSnaps)
	return out
}

func comparePrefixSnaps(a, b PrefixSnap) int     { return a.Prefix.Compare(b.Prefix) }
func compareConflictSnaps(a, b ConflictSnap) int { return a.Prefix.Compare(b.Prefix) }
func compareSpanSnaps(a, b SpanSnap) int {
	return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.End, b.End))
}

// MergeSorted merges slices that are each sorted by cmp into one sorted
// slice, consuming parts (a single part is returned as it is). Picking
// the least head is linear in the total for the handful of partitions an
// engine has, where sorting the concatenation — sorted runs interleaved
// by hash — is pdqsort's full n log n over table-sized structs.
func MergeSorted[T any](parts [][]T, cmp func(a, b T) int) []T {
	if len(parts) == 1 {
		return parts[0]
	}
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	out := slices.Grow([]T(nil), n)
	for len(out) < n {
		least := -1
		for i, p := range parts {
			if len(p) > 0 && (least < 0 || cmp(p[0], parts[least][0]) < 0) {
				least = i
			}
		}
		out = append(out, parts[least][0])
		parts[least] = parts[least][1:]
	}
	return out
}
