package core

import (
	"sort"

	"moas/internal/bgp"
)

// Conflict is the lifetime record of one MOAS conflict, identified by
// prefix alone (§III: the same prefix in conflict on many days — even with
// different origin sets, even non-contiguously — is one conflict).
type Conflict struct {
	Prefix bgp.Prefix

	// FirstDay and LastDay are observation-day indexes (inclusive).
	FirstDay, LastDay int

	// DaysObserved counts distinct days the conflict was active — the
	// paper's duration metric ("the total number of days the conflict was
	// in existence, regardless of whether it was continuous").
	DaysObserved int

	// OriginsEver accumulates every AS that ever appeared in the conflict's
	// origin set (ascending, deduplicated).
	OriginsEver []bgp.ASN

	// ClassDays counts, per classification, the days the conflict spent in
	// that class (indexed by Class).
	ClassDays [NumClasses]int
}

// Duration returns the paper's duration in days: the number of days the
// conflict was observed. A conflict seen once has duration 1 (reported by
// the paper as "lasting less than one day").
func (c *Conflict) Duration() int { return c.DaysObserved }

// DominantClass returns the class this conflict exhibited most often.
func (c *Conflict) DominantClass() Class {
	best, bestN := ClassNone, 0
	for cl := 1; cl < NumClasses; cl++ {
		if c.ClassDays[cl] > bestN {
			best, bestN = Class(cl), c.ClassDays[cl]
		}
	}
	return best
}

// mergeOrigins unions newOrigins (ascending) into dst (ascending).
func mergeOrigins(dst, newOrigins []bgp.ASN) []bgp.ASN {
	for _, o := range newOrigins {
		i := sort.Search(len(dst), func(i int) bool { return dst[i] >= o })
		if i < len(dst) && dst[i] == o {
			continue
		}
		dst = append(dst, 0)
		copy(dst[i+1:], dst[i:])
		dst[i] = o
	}
	return dst
}

// Registry accumulates conflicts across a whole study period.
type Registry struct {
	m map[bgp.Prefix]*Conflict
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{m: make(map[bgp.Prefix]*Conflict)}
}

// Observe accounts one observation: prefix was in MOAS conflict on the
// given observation day with the given (ascending) origin set and
// classification. It is the one statement of the paper's duration
// accounting — Registry.Record applies it to the records of a full-scan
// detector, the streaming kernel to the records it keeps under its prefix
// table. The zero Conflict is the empty record, which its first
// observation starts; observing the same day twice is idempotent for
// duration accounting.
func (c *Conflict) Observe(day int, prefix bgp.Prefix, origins []bgp.ASN, class Class) {
	if !c.Prefix.IsValid() {
		*c = Conflict{Prefix: prefix, FirstDay: day, LastDay: day}
	}
	if day != c.LastDay || c.DaysObserved == 0 {
		c.DaysObserved++
		c.ClassDays[class]++
		if day < c.FirstDay {
			c.FirstDay = day
		}
		if day > c.LastDay {
			c.LastDay = day
		}
	}
	c.OriginsEver = mergeOrigins(c.OriginsEver, origins)
}

// Record notes that prefix was in MOAS conflict on the given observation
// day (see Conflict.Observe).
func (r *Registry) Record(day int, prefix bgp.Prefix, origins []bgp.ASN, class Class) {
	c, ok := r.m[prefix]
	if !ok {
		c = new(Conflict)
		r.m[prefix] = c
	}
	c.Observe(day, prefix, origins, class)
}

// Clone returns a deep copy of c.
func (c *Conflict) Clone() *Conflict {
	out := *c
	out.OriginsEver = append([]bgp.ASN(nil), c.OriginsEver...)
	return &out
}

// Insert adopts a fully-formed conflict record, replacing any existing
// record for its prefix. It is how a registry is rendered from records
// kept elsewhere (the kernel's, see kernel.Registry); accumulation goes
// through Record.
func (r *Registry) Insert(c *Conflict) { r.m[c.Prefix] = c }

// Len returns the number of distinct conflicts seen.
func (r *Registry) Len() int { return len(r.m) }

// Get returns the conflict record for prefix.
func (r *Registry) Get(prefix bgp.Prefix) (*Conflict, bool) {
	c, ok := r.m[prefix]
	return c, ok
}

// Conflicts returns all conflict records sorted by prefix — the dataset
// Figures 3-5 are computed from.
func (r *Registry) Conflicts() []*Conflict {
	out := make([]*Conflict, 0, len(r.m))
	for _, c := range r.m {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Prefix.Compare(out[j].Prefix) < 0 })
	return out
}

// OngoingAt counts conflicts still active on the given final day — the
// paper's "1326 conflicts were still ongoing" statistic.
func (r *Registry) OngoingAt(finalDay int) int {
	n := 0
	for _, c := range r.m {
		if c.LastDay == finalDay {
			n++
		}
	}
	return n
}
