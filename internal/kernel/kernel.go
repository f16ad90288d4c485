// Package kernel is the single authoritative implementation of the
// paper's conflict-episode semantics: a pure, single-threaded state
// machine that turns a sequence of per-prefix origin-set observations
// into conflict lifecycle events, open/closed episode records with
// durations, and the cross-day conflict registry behind Figures 1-6.
// Both detection paths drive it — the batch driver feeds it per-day
// table observations, the streaming engine feeds it per-update
// reassessments — so their equivalence holds at the kernel level
// instead of being re-derived per path. The kernel also carries a
// versioned snapshot codec (snapshot.go), which is what makes engine
// checkpoints and mid-archive resume possible.
package kernel

import (
	"sort"

	"moas/internal/arena"
	"moas/internal/bgp"
	"moas/internal/core"
	"moas/internal/ptable"
)

// EventType enumerates conflict lifecycle transitions.
type EventType uint8

const (
	// EventConflictStart: the prefix's origin set grew to two or more ASes.
	EventConflictStart EventType = iota + 1
	// EventOriginChange: an active conflict's origin set changed while
	// keeping two or more ASes.
	EventOriginChange
	// EventClassChange: the origin set is unchanged but the observed paths
	// changed enough to reclassify the conflict.
	EventClassChange
	// EventConflictEnd: the origin set shrank below two ASes.
	EventConflictEnd
)

// String names the event type for logs and the JSON API.
func (t EventType) String() string {
	switch t {
	case EventConflictStart:
		return "conflict-start"
	case EventOriginChange:
		return "origin-change"
	case EventClassChange:
		return "class-change"
	case EventConflictEnd:
		return "conflict-end"
	}
	return "none"
}

// Event is one conflict lifecycle transition. For a given observation
// sequence the event stream per prefix is deterministic: observations of
// one prefix are applied in order, wherever they come from. The query
// APIs render events themselves.
type Event struct {
	Type   EventType
	Day    int    // observation day of the triggering observation
	Seq    uint64 // per-prefix ordinal; orders one prefix's lifecycle
	Prefix bgp.Prefix

	// Origins and Class describe the state after the transition, the Prev
	// fields the state before it. Origins is empty after EventConflictEnd.
	Origins     []bgp.ASN
	PrevOrigins []bgp.ASN
	Class       core.Class
	PrevClass   core.Class
}

// Obs is one observation driven into the kernel: prefix p's assessed
// origin set and classification as of day Day. Callers assess routes
// however they store them (per-peer Adj-RIB-In maps in streaming, episode
// advertisement sets in batch); the kernel owns everything downstream of
// the assessment. Origins must be ascending and may alias a caller
// scratch buffer — the kernel copies it only when committing a change.
// Class is meaningful when len(Origins) >= 2 and ignored otherwise. An
// empty origin set observes the prefix as absent/withdrawn.
type Obs struct {
	Day     int
	Prefix  bgp.Prefix
	Origins []bgp.ASN
	Class   core.Class
}

// rec is one table id's compact conflict state — the whole state of a
// prefix that never had a lifecycle event, which is all but a sliver of
// a real table — plus the word a holder of the id keeps under it. Such a
// prefix has at most one origin, class None and no ordinal, so four
// bytes of origin and two flags say everything; the flags ride in the
// table's mark (ptable.Table.SetMark), and the table stores the record
// inline beside the prefix key, so the probe that finds the id has
// already loaded it. A prefix's first conflict moves its state to an ext
// record for good.
type rec struct {
	val uint32 // recExt: index of the ext record; recOrigin: the single origin AS
	// head is the holder's word (Head): the streaming shard's route-list
	// head. The kernel only asks whether it is nonzero — whether the id
	// is held.
	head uint32
}

// The flags of a rec, kept in its id's table mark.
const (
	recOrigin uint8 = 1 << iota // val holds the prefix's one origin
	recExt                      // val indexes Kernel.exts
)

// ext is the full conflict state of a prefix that has (or, restored from
// a snapshot, claims) a lifecycle: origin set, class, event ordinal and
// activation day. Its index also addresses the prefix's lifetime record
// (Kernel.recs). Ext records are never recycled — a lifecycle is worth
// keeping for as long as the kernel lives.
type ext struct {
	origins []bgp.ASN // current origin set (ascending); in conflict iff len >= 2
	// escaped marks origins' backing array as aliased by an emitted event
	// (Origins of the event that committed it). While false the backing
	// is exclusively the kernel's and may be overwritten in place, which
	// is what makes eventless churn under a lifecycle allocation-free.
	escaped bool
	class   core.Class
	// activeAt is the prefix's position in Kernel.active while it is in
	// conflict, -1 otherwise.
	activeAt int32
	seq      uint64 // lifecycle event ordinal for this prefix
	since    int    // day the current activation started
}

// Options parameterizes a kernel.
type Options struct {
	// Deprecated: no effect; the kernel keeps no event history. The
	// events Apply returns are the whole record (see Kernel).
	HistoryCap int
}

// Kernel is the conflict-episode state machine. It is deliberately
// single-threaded: concurrent users (the sharded streaming engine) own
// one kernel per shard and serialize access through the shard lock. Its
// only output is what its methods return: the events Apply and ApplyAt
// return are the whole lifecycle record, and the caller decides where
// they go (Episode derives each one's episode record).
type Kernel struct {
	// tab is the prefix index: prefix → dense id → rec. The kernel owns
	// it; the streaming shard borrows its ids (Lookup/Acquire), keeps its
	// per-prefix route-list head in the id's record (Head) and drives
	// observations in by id (ApplyAt), so a route op probes the table
	// exactly once.
	tab  ptable.Table[rec]
	exts arena.Chunks[ext]
	// recs holds, under its ext's index, the lifetime record of a prefix
	// with a lifecycle — the paper's one record per conflicted prefix. It
	// is nil until the first day close that finds the prefix in conflict
	// (a live feed closes no day for hours, a same-day flap never meets
	// one); conflicts counts the others.
	recs      arena.Chunks[*core.Conflict]
	conflicts int
	// active lists the ids currently in conflict, in no particular order
	// (ext.activeAt is each one's position), so a day close costs
	// O(active conflicts) whatever the table size.
	active []uint32
	events int // lifecycle events emitted
	// closed counts ended activations per distinct (start, end) pair, so
	// what a month of flapping leaves behind is bounded by days squared,
	// not by events; open spans are derived from the active set
	// (ext.since) on demand.
	closed   map[SpanSnap]int
	evBuf    []Event   // ApplyAt's reused return buffer
	asnArena []bgp.ASN // chunked backing for unescaped origin commits
}

// New returns an empty kernel; no field of Options has an effect.
func New(Options) *Kernel {
	return &Kernel{closed: make(map[SpanSnap]int)}
}

// Apply drives one observation through the state machine and returns the
// lifecycle events it implies (zero or one; the slice is reused by the
// next call, so callers retain events by copying them out). An
// observation that changes neither the origin set nor the class performs
// no allocation — the streaming hot path's claim (BenchmarkShardReassess).
func (k *Kernel) Apply(o Obs) []Event {
	h := uint32(ptable.Hash(o.Prefix))
	id, ok := k.tab.Find(o.Prefix, h)
	if !ok {
		if len(o.Origins) == 0 {
			return nil // never tracked and observed absent: nothing to do
		}
		id = k.tab.Insert(o.Prefix, h)
	}
	return k.ApplyAt(id, o)
}

// Lookup returns the table id of p, if the kernel or a holder of its
// ids tracks it. h must be uint32(ptable.Hash(p)).
func (k *Kernel) Lookup(p bgp.Prefix, h uint32) (uint32, bool) {
	return k.tab.Find(p, h)
}

// Acquire returns the table id of p, entering p if it is new. A caller
// keeps its own per-prefix word under the id (Head). An id lives until
// an ApplyAt leaves the prefix without origins, lifecycle or a nonzero
// head. h must be uint32(ptable.Hash(p)).
func (k *Kernel) Acquire(p bgp.Prefix, h uint32) uint32 {
	if id, ok := k.tab.Find(p, h); ok {
		return id
	}
	return k.tab.Insert(p, h)
}

// Head returns the holder's word of a live id: one uint32 the kernel
// keeps for the caller beside the id's state (the shard's route-list
// head), and reads only to tell whether the caller still holds the id.
// The pointer stays valid until the id is recycled; a recycled id's
// head is zero.
func (k *Kernel) Head(id uint32) *uint32 { return &k.tab.At(id).head }

// ApplyAt is Apply for a caller that already holds o.Prefix's id. The
// kernel recycles the id only when its head (Head) is zero and the
// prefix has neither origins nor lifecycle left.
func (k *Kernel) ApplyAt(id uint32, o Obs) []Event {
	r := k.tab.At(id)
	if k.tab.Mark(id)&recExt == 0 {
		switch len(o.Origins) {
		case 0:
			if r.head == 0 {
				k.tab.Delete(id)
			} else {
				k.tab.SetMark(id, 0)
			}
			return nil
		case 1:
			// Sub-conflict origin churn: the bulk of a real feed.
			r.val = uint32(o.Origins[0])
			k.tab.SetMark(id, recOrigin)
			return nil
		}
		k.promote(id) // first conflict
	}
	return k.applyExt(id, k.exts.At(r.val), o)
}

// promote moves a compact record's state out of line, for good: it carves
// the ext record and, under the same index, the slot of the lifetime
// record.
func (k *Kernel) promote(id uint32) *ext {
	xi := k.exts.Alloc()
	k.recs.Alloc()
	x := k.exts.At(xi)
	x.activeAt = -1
	r := k.tab.At(id)
	if k.tab.Mark(id)&recOrigin != 0 {
		x.origins = append(k.allocOrigins(1), bgp.ASN(r.val))
	}
	r.val = xi
	k.tab.SetMark(id, recExt)
	return x
}

// applyExt is the state machine proper, for a prefix with a lifecycle.
func (k *Kernel) applyExt(id uint32, st *ext, o Obs) []Event {
	origins := o.Origins
	class := o.Class
	if len(origins) < 2 {
		class = core.ClassNone
	}
	prevOrigins, prevClass := st.origins, st.class
	sameSet := asnsEqual(origins, prevOrigins)
	if sameSet && class == prevClass {
		return nil
	}

	// The lifecycle transition is decided before the commit so the commit
	// can reuse st.origins' backing in place for the eventless case; an
	// emitted event aliases both the old set (PrevOrigins) and the new
	// (Origins), so it forces a fresh copy.
	was, now := len(prevOrigins) >= 2, len(origins) >= 2
	var evType EventType
	switch {
	case !was && now:
		evType = EventConflictStart
	case was && !now:
		evType = EventConflictEnd
	case was && now && !sameSet:
		evType = EventOriginChange
	case was && now && class != prevClass:
		evType = EventClassChange
	}

	// Commit: st.origins and emitted events must not alias the caller's
	// scratch, which the next assessment overwrites.
	var committed []bgp.ASN
	if evType == 0 && !st.escaped && cap(st.origins) >= len(origins) {
		committed = append(st.origins[:0], origins...)
	} else if len(origins) > 0 {
		if evType == 0 && !st.escaped {
			// Eventless commit outgrowing its backing. Nothing escapes
			// it, so it can come from the chunked arena.
			committed = append(k.allocOrigins(len(origins)), origins...)
		} else {
			committed = append(make([]bgp.ASN, 0, len(origins)), origins...)
		}
	}
	ev := Event{Type: evType, Day: o.Day, Prefix: o.Prefix, Origins: committed, PrevOrigins: prevOrigins, Class: class, PrevClass: prevClass}
	switch evType {
	case EventConflictStart:
		st.since = o.Day
		st.activeAt = int32(len(k.active))
		k.active = append(k.active, id)
	case EventConflictEnd:
		ev.Origins = nil
		k.deactivate(st)
		k.closed[SpanSnap{Start: st.since, End: o.Day}]++
	}
	st.origins, st.class = committed, class
	// An end event's committed set (at most one origin) is not carried by
	// the event, so its backing stays exclusively the kernel's.
	st.escaped = evType != 0 && evType != EventConflictEnd && len(committed) > 0
	if evType == 0 {
		return nil // sub-conflict origin churn (e.g. one origin to another)
	}
	st.seq++
	ev.Seq = st.seq
	k.events++
	k.evBuf = append(k.evBuf[:0], ev)
	return k.evBuf
}

// deactivate drops st's prefix from the active list by swapping the
// list's last id into its position.
func (k *Kernel) deactivate(st *ext) {
	last := k.active[len(k.active)-1]
	k.active[st.activeAt] = last
	k.extOf(last).activeAt = st.activeAt
	k.active = k.active[:len(k.active)-1]
	st.activeAt = -1
}

// extOf returns the ext record of an id known to have one.
func (k *Kernel) extOf(id uint32) *ext { return k.exts.At(k.tab.At(id).val) }

// Episode derives the episode record of ev, an event ApplyAt(id, ...)
// just returned. An end event closes the activation: it was last active
// at the close of the day before the dissolving observation (clamped so a
// same-day start+end still spans its one day), described by the
// pre-transition origin set and class. Every other lifecycle event
// restates the activation as open through the event's own day with the
// post-transition set. The event's Seq carries over, giving durable
// consumers a per-prefix total order shared with the event stream. The
// record's Origins alias the event's, which the kernel never writes again.
func (k *Kernel) Episode(id uint32, ev *Event) core.Episode {
	since := k.extOf(id).since
	ep := core.Episode{Prefix: ev.Prefix, Seq: ev.Seq, Start: since, End: ev.Day,
		Origins: ev.Origins, Class: ev.Class, Open: ev.Type != EventConflictEnd}
	if !ep.Open {
		ep.Origins, ep.Class = ev.PrevOrigins, ev.PrevClass
		ep.End = max(ev.Day-1, since)
	}
	return ep
}

// ArenaStates returns the number of table ids carved over the kernel's
// lifetime — live prefixes plus the recycled chain, i.e. the table's
// retained footprint in entries.
func (k *Kernel) ArenaStates() int { return k.tab.Carved() }

// Cells returns the cell count of the table's index, 4 bytes a cell:
// the rest of its footprint, which a restore sizes once (RestorePart).
func (k *Kernel) Cells() int { return k.tab.Cells() }

// allocOrigins reserves an n-capacity, zero-length origin slice from the
// chunked arena.
func (k *Kernel) allocOrigins(n int) []bgp.ASN { return carveASNs(&k.asnArena, n) }

// CloseDay accounts the day in the lifetime record of every active
// conflict — the kernel-level form of the paper's daily table scan,
// costing O(active conflicts) instead of O(table). Both adapters call it
// once per observed day, which is what makes their registries identical.
func (k *Kernel) CloseDay(day int) {
	for _, id := range k.active {
		xi := k.tab.At(id).val
		st, c := k.exts.At(xi), k.recs.At(xi)
		if *c == nil {
			*c = new(core.Conflict)
			k.conflicts++
		}
		(*c).Observe(day, k.tab.Prefix(id), st.origins, st.class)
	}
}

// WalkConflicts visits every lifetime record — one per prefix ever found
// in conflict at a day close — in no particular order. The records are
// the kernel's own: read them during the call, Clone to keep. Return
// false to stop.
func (k *Kernel) WalkConflicts(fn func(c *core.Conflict) bool) {
	for xi := uint32(0); int(xi) < k.recs.Len(); xi++ {
		if c := *k.recs.At(xi); c != nil && !fn(c) {
			return
		}
	}
}

// Registry renders the cross-day conflict records (paper durations,
// classes, origin sets) as a registry of their copies, as of the last
// day close.
func (k *Kernel) Registry() *core.Registry {
	reg := core.NewRegistry()
	k.WalkConflicts(func(c *core.Conflict) bool {
		reg.Insert(c.Clone())
		return true
	})
	return reg
}

// ConflictCount returns the number of lifetime records: distinct prefixes
// ever in conflict at a day close.
func (k *Kernel) ConflictCount() int { return k.conflicts }

// ActiveCount returns the number of prefixes currently in conflict.
func (k *Kernel) ActiveCount() int { return len(k.active) }

// EventCount returns the number of lifecycle events emitted.
func (k *Kernel) EventCount() int { return k.events }

// View is one prefix's assessed conflict state as exposed to queries.
// Origins and Conflict are borrowed from kernel state: copy them before
// the next Apply or CloseDay.
type View struct {
	Origins []bgp.ASN
	Class   core.Class
	Since   int // day the current activation started (active prefixes)
	Seq     uint64
	Active  bool
	// Conflict is the prefix's lifetime record through the last day
	// close; nil if no day close has found it in conflict.
	Conflict *core.Conflict
}

// State reports one prefix's current assessed state. ok is false when the
// kernel holds no state for the prefix (never observed, or withdrawn with
// no lifecycle).
func (k *Kernel) State(p bgp.Prefix) (View, bool) {
	id, ok := k.tab.Find(p, uint32(ptable.Hash(p)))
	if !ok {
		return View{}, false
	}
	return k.view(id)
}

// view renders id's state; ok is false for an id that carries none (a
// holder's routes without an origin).
func (k *Kernel) view(id uint32) (View, bool) {
	r := k.tab.At(id)
	switch flags := k.tab.Mark(id); {
	case flags&recExt != 0:
		st := k.exts.At(r.val)
		return View{
			Origins:  st.origins,
			Class:    st.class,
			Since:    st.since,
			Seq:      st.seq,
			Active:   st.activeAt >= 0,
			Conflict: *k.recs.At(r.val),
		}, true
	case flags&recOrigin != 0:
		// Readers may run concurrently under the shard's read lock, so the
		// one-origin set is materialized fresh, not in shared scratch.
		return View{Origins: []bgp.ASN{bgp.ASN(r.val)}}, true
	}
	return View{}, false
}

// WalkPrefixes visits every table id with its prefix, in id order —
// tracked prefixes and ids a caller merely holds alike. The callback
// must not call back into the kernel's mutating methods.
func (k *Kernel) WalkPrefixes(fn func(id uint32, p bgp.Prefix) bool) { k.tab.Walk(fn) }

// WalkActive visits every active conflict; iteration order is undefined.
// The View's Origins are borrowed (see View). Return false to stop. The callback must not call back into the
// kernel's mutating methods.
func (k *Kernel) WalkActive(fn func(p bgp.Prefix, v View) bool) {
	for _, id := range k.active {
		v, _ := k.view(id)
		if !fn(k.tab.Prefix(id), v) {
			return
		}
	}
}

// SortEvents orders events canonically: (day, prefix, per-prefix seq).
// For a given input stream this order is deterministic regardless of how
// observations were partitioned across kernels.
func SortEvents(evs []Event) {
	sort.Slice(evs, func(i, j int) bool {
		a, b := &evs[i], &evs[j]
		if a.Day != b.Day {
			return a.Day < b.Day
		}
		if c := a.Prefix.Compare(b.Prefix); c != 0 {
			return c < 0
		}
		return a.Seq < b.Seq
	})
}

// asnsEqual reports whether two ascending origin sets are identical.
func asnsEqual(a, b []bgp.ASN) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
