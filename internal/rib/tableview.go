package rib

import (
	"sort"

	"moas/internal/bgp"
)

// TableView is the multi-peer snapshot the MOAS methodology operates on:
// for each prefix, every collector peer's route, exactly the information
// content of one day's Route Views table dump.
type TableView struct {
	routes map[bgp.Prefix][]PeerRoute
}

// NewTableView returns an empty view.
func NewTableView() *TableView {
	return &TableView{routes: make(map[bgp.Prefix][]PeerRoute)}
}

// Add appends one peer route to the view.
func (v *TableView) Add(pr PeerRoute) {
	v.routes[pr.Route.Prefix] = append(v.routes[pr.Route.Prefix], pr)
}

// Len returns the number of distinct prefixes in the view.
func (v *TableView) Len() int { return len(v.routes) }

// Routes returns all peer routes for p (shared slice; do not mutate).
func (v *TableView) Routes(p bgp.Prefix) []PeerRoute { return v.routes[p] }

// Prefixes returns every prefix in the view in canonical order. The sort
// makes downstream processing deterministic.
func (v *TableView) Prefixes() []bgp.Prefix {
	out := make([]bgp.Prefix, 0, len(v.routes))
	for p := range v.routes {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// Walk visits each prefix's routes in map order (fast, nondeterministic);
// use Prefixes for deterministic iteration.
func (v *TableView) Walk(fn func(bgp.Prefix, []PeerRoute) bool) {
	for p, rs := range v.routes {
		if !fn(p, rs) {
			return
		}
	}
}

// OriginsOf extracts the ascending distinct origin set from a route list,
// excluding AS_SET-terminated paths; it returns the set and the excluded
// route count.
func OriginsOf(rs []PeerRoute) ([]bgp.ASN, int) {
	return AppendOrigins(nil, rs)
}

// AppendOrigins is OriginsOf into a caller-owned slice: the origin set is
// built in dst (which is reset, not appended after existing elements) and
// returned, so a hot loop that reuses dst across calls recomputes origin
// sets without allocating. Insertion keeps dst ascending and deduplicated
// as it goes — origin sets are tiny, so no sort (and no sort closure
// allocation) is needed.
func AppendOrigins(dst []bgp.ASN, rs []PeerRoute) ([]bgp.ASN, int) {
	dst = dst[:0]
	var excluded int
	for _, pr := range rs {
		o, ok := pr.Route.Origin()
		if !ok {
			excluded++
			continue
		}
		dst = InsertOrigin(dst, o)
	}
	return dst, excluded
}

// InsertOrigin adds o to the ascending, deduplicated origin set dst and
// returns the set.
func InsertOrigin(dst []bgp.ASN, o bgp.ASN) []bgp.ASN {
	pos := len(dst)
	for i, v := range dst {
		if v == o {
			return dst
		}
		if v > o {
			pos = i
			break
		}
	}
	dst = append(dst, 0)
	copy(dst[pos+1:], dst[pos:])
	dst[pos] = o
	return dst
}
