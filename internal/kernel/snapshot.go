package kernel

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"moas/internal/bgp"
	"moas/internal/core"
	"moas/internal/ptable"
)

// SnapshotVersion is the current snapshot format version. Decoders reject
// snapshots from a different major format; bump it on incompatible
// changes to the wire structs below.
const SnapshotVersion = 1

// Snapshot is the serializable image of a kernel: every tracked prefix
// state, the cross-day conflict registry, the closed activation spans and
// the event accounting. It is plain data — JSON-encodable directly or via
// Encode/DecodeSnapshot — and is prefix-disjoint mergeable (Merge), which
// is how the sharded engine composes one engine-wide snapshot out of its
// per-shard kernels.
type Snapshot struct {
	Version int `json:"version"`
	// Prefixes holds one entry per tracked prefix, sorted by prefix.
	Prefixes []PrefixSnap `json:"prefixes"`
	// Conflicts is the registry image, sorted by prefix.
	Conflicts []ConflictSnap `json:"conflicts"`
	// ClosedSpans are the ended activation spans (order irrelevant).
	ClosedSpans []SpanSnap `json:"closed_spans,omitempty"`
	// Events is the lifecycle-event count emitted so far.
	Events int `json:"events"`
	// Log is the retained global event record (present only when the
	// kernel ran with Options.KeepLog), in canonical order.
	Log []EventSnap `json:"log,omitempty"`
}

// PrefixSnap is one prefix's serialized state. Class values are the
// core.Class constants, which are version-stable by construction.
type PrefixSnap struct {
	Prefix  string      `json:"prefix"`
	Origins []bgp.ASN   `json:"origins,omitempty"`
	Class   uint8       `json:"class,omitempty"`
	Seq     uint64      `json:"seq,omitempty"`
	Since   int         `json:"since,omitempty"`
	History []EventSnap `json:"history,omitempty"`
}

// ConflictSnap is one registry record's serialized form.
type ConflictSnap struct {
	Prefix       string    `json:"prefix"`
	FirstDay     int       `json:"first_day"`
	LastDay      int       `json:"last_day"`
	DaysObserved int       `json:"days_observed"`
	OriginsEver  []bgp.ASN `json:"origins_ever"`
	ClassDays    []int     `json:"class_days"`
}

// SpanSnap is one closed activation span.
type SpanSnap struct {
	Start int `json:"start"`
	End   int `json:"end"`
}

// EventSnap is one lifecycle event's serialized form.
type EventSnap struct {
	Type        uint8     `json:"type"`
	Day         int       `json:"day"`
	Seq         uint64    `json:"seq"`
	Prefix      string    `json:"prefix"`
	Origins     []bgp.ASN `json:"origins,omitempty"`
	PrevOrigins []bgp.ASN `json:"prev_origins,omitempty"`
	Class       uint8     `json:"class,omitempty"`
	PrevClass   uint8     `json:"prev_class,omitempty"`
}

func eventToSnap(ev *Event) EventSnap {
	return EventSnap{
		Type:        uint8(ev.Type),
		Day:         ev.Day,
		Seq:         ev.Seq,
		Prefix:      ev.Prefix.String(),
		Origins:     ev.Origins,
		PrevOrigins: ev.PrevOrigins,
		Class:       uint8(ev.Class),
		PrevClass:   uint8(ev.PrevClass),
	}
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

func snapToEvent(s *EventSnap) (Event, error) {
	p, err := bgp.ParsePrefix(s.Prefix)
	if err != nil {
		return Event{}, fmt.Errorf("kernel: snapshot event prefix %q: %w", s.Prefix, err)
	}
	if err := validClass(s.Class); err != nil {
		return Event{}, err
	}
	if err := validClass(s.PrevClass); err != nil {
		return Event{}, err
	}
	return Event{
		Type:        EventType(s.Type),
		Day:         s.Day,
		Seq:         s.Seq,
		Prefix:      p,
		Origins:     s.Origins,
		PrevOrigins: s.PrevOrigins,
		Class:       core.Class(s.Class),
		PrevClass:   core.Class(s.PrevClass),
	}, nil
}

// Snapshot serializes the kernel's complete state. The result shares no
// memory with the kernel (event slices are copied), so it stays valid
// while the kernel keeps running.
func (k *Kernel) Snapshot() *Snapshot {
	s := &Snapshot{Version: SnapshotVersion, Events: k.events}
	k.tab.Walk(func(id uint32, p bgp.Prefix) bool {
		v, ok := k.view(id)
		if !ok {
			return true // an id held for its routes only carries no state
		}
		if k.tab.At(id).flags&recExt != 0 {
			// Borrowed from the ext record (an inline origin is already
			// materialized afresh by view).
			v.Origins = append([]bgp.ASN(nil), v.Origins...)
		}
		ps := PrefixSnap{
			Prefix:  p.String(),
			Origins: v.Origins,
			Class:   uint8(v.Class),
			Seq:     v.Seq,
			Since:   v.Since,
		}
		for i := range v.History {
			ps.History = append(ps.History, eventToSnap(&v.History[i]))
		}
		s.Prefixes = append(s.Prefixes, ps)
		return true
	})
	sort.Slice(s.Prefixes, func(i, j int) bool { return s.Prefixes[i].Prefix < s.Prefixes[j].Prefix })
	for _, c := range k.reg.Conflicts() {
		s.Conflicts = append(s.Conflicts, ConflictSnap{
			Prefix:       c.Prefix.String(),
			FirstDay:     c.FirstDay,
			LastDay:      c.LastDay,
			DaysObserved: c.DaysObserved,
			OriginsEver:  append([]bgp.ASN(nil), c.OriginsEver...),
			ClassDays:    append([]int(nil), c.ClassDays[:]...),
		})
	}
	for _, sp := range k.closedSpans {
		s.ClosedSpans = append(s.ClosedSpans, SpanSnap{Start: sp.Start, End: sp.End})
	}
	for i := range k.log {
		s.Log = append(s.Log, eventToSnap(&k.log[i]))
	}
	return s
}

// Restore loads a snapshot into an empty kernel (one fresh from New).
// Histories longer than the kernel's HistoryCap are truncated to their
// most recent events. Active conflicts are re-derived from origin-set
// cardinality, the invariant the state machine maintains.
func (k *Kernel) Restore(s *Snapshot) error {
	if s.Version != SnapshotVersion {
		return fmt.Errorf("kernel: snapshot version %d, want %d", s.Version, SnapshotVersion)
	}
	if k.tab.Len() != 0 || k.reg.Len() != 0 || k.events != 0 {
		return fmt.Errorf("kernel: restore into non-empty kernel")
	}
	for i := range s.Prefixes {
		ps := &s.Prefixes[i]
		p, err := bgp.ParsePrefix(ps.Prefix)
		if err != nil {
			return fmt.Errorf("kernel: snapshot prefix %q: %w", ps.Prefix, err)
		}
		if err := validClass(ps.Class); err != nil {
			return fmt.Errorf("kernel: snapshot prefix %s: %w", ps.Prefix, err)
		}
		h := uint32(ptable.Hash(p))
		if _, dup := k.tab.Find(p, h); dup {
			return fmt.Errorf("kernel: snapshot repeats prefix %s", ps.Prefix)
		}
		lifecycle := ps.Seq != 0 || ps.Since != 0 || ps.Class != 0 || len(ps.History) > 0
		if !lifecycle && len(ps.Origins) == 0 {
			continue // a stateless prefix is simply not tracked
		}
		id := k.tab.Insert(p, h)
		r := k.tab.At(id)
		if !lifecycle && len(ps.Origins) == 1 {
			r.val, r.flags = uint32(ps.Origins[0]), recOrigin
			continue
		}
		r.val, r.flags = k.exts.Alloc(), recExt
		st := k.exts.At(r.val)
		*st = ext{
			origins:  append([]bgp.ASN(nil), ps.Origins...),
			class:    core.Class(ps.Class),
			activeAt: -1,
			seq:      ps.Seq,
			since:    ps.Since,
		}
		hist := ps.History
		if k.opts.HistoryCap > 0 && len(hist) > k.opts.HistoryCap {
			hist = hist[len(hist)-k.opts.HistoryCap:]
		}
		for j := range hist {
			ev, err := snapToEvent(&hist[j])
			if err != nil {
				return err
			}
			st.history = append(st.history, ev)
		}
		if len(st.origins) >= 2 {
			st.activeAt = int32(len(k.active))
			k.active = append(k.active, id)
		}
	}
	for i := range s.Conflicts {
		cs := &s.Conflicts[i]
		p, err := bgp.ParsePrefix(cs.Prefix)
		if err != nil {
			return fmt.Errorf("kernel: snapshot conflict prefix %q: %w", cs.Prefix, err)
		}
		c := &core.Conflict{
			Prefix:       p,
			FirstDay:     cs.FirstDay,
			LastDay:      cs.LastDay,
			DaysObserved: cs.DaysObserved,
			OriginsEver:  append([]bgp.ASN(nil), cs.OriginsEver...),
		}
		if len(cs.ClassDays) > len(c.ClassDays) {
			return fmt.Errorf("kernel: snapshot conflict %s has %d classes, want <= %d",
				cs.Prefix, len(cs.ClassDays), len(c.ClassDays))
		}
		copy(c.ClassDays[:], cs.ClassDays)
		k.reg.Insert(c)
	}
	for _, sp := range s.ClosedSpans {
		k.closedSpans = append(k.closedSpans, Span{Start: sp.Start, End: sp.End})
	}
	k.events = s.Events
	if k.opts.KeepLog {
		for i := range s.Log {
			ev, err := snapToEvent(&s.Log[i])
			if err != nil {
				return err
			}
			k.log = append(k.log, ev)
		}
	}
	return nil
}

// Merge combines prefix-disjoint snapshots (the sharded engine's case,
// where each shard's kernel owns a hash partition of the prefix space)
// into one. Prefix states and conflicts concatenate, spans concatenate,
// event counts add, and logs merge into canonical order.
func Merge(parts []*Snapshot) *Snapshot {
	out := &Snapshot{Version: SnapshotVersion}
	for _, p := range parts {
		out.Prefixes = append(out.Prefixes, p.Prefixes...)
		out.Conflicts = append(out.Conflicts, p.Conflicts...)
		out.ClosedSpans = append(out.ClosedSpans, p.ClosedSpans...)
		out.Events += p.Events
		out.Log = append(out.Log, p.Log...)
	}
	sort.Slice(out.Prefixes, func(i, j int) bool { return out.Prefixes[i].Prefix < out.Prefixes[j].Prefix })
	sort.Slice(out.Conflicts, func(i, j int) bool { return out.Conflicts[i].Prefix < out.Conflicts[j].Prefix })
	// Span order is semantically irrelevant but shard-partition dependent;
	// sorting makes the merged snapshot — and so checkpoint bytes —
	// canonical across shard counts.
	sort.Slice(out.ClosedSpans, func(i, j int) bool {
		if out.ClosedSpans[i].Start != out.ClosedSpans[j].Start {
			return out.ClosedSpans[i].Start < out.ClosedSpans[j].Start
		}
		return out.ClosedSpans[i].End < out.ClosedSpans[j].End
	})
	sort.Slice(out.Log, func(i, j int) bool {
		a, b := &out.Log[i], &out.Log[j]
		if a.Day != b.Day {
			return a.Day < b.Day
		}
		if a.Prefix != b.Prefix {
			return a.Prefix < b.Prefix
		}
		return a.Seq < b.Seq
	})
	return out
}

// EncodeSnapshot writes the snapshot as JSON.
func EncodeSnapshot(w io.Writer, s *Snapshot) error {
	return json.NewEncoder(w).Encode(s)
}

// DecodeSnapshot reads a JSON snapshot and validates its version.
func DecodeSnapshot(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("kernel: decode snapshot: %w", err)
	}
	if s.Version != SnapshotVersion {
		return nil, fmt.Errorf("kernel: snapshot version %d, want %d", s.Version, SnapshotVersion)
	}
	return &s, nil
}
