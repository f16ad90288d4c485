// Package scenario scripts the study: it composes the synthetic topology
// (internal/topology) and routing fabric (internal/simnet) with a
// calibrated episode schedule — long-lived multihoming, short
// misconfigurations, mass false-origination storms, AS_SET aggregates —
// over the paper's 1279-day observation calendar (DefaultSpec; TestSpec
// is the scaled-down two-month variant). The product is a deterministic,
// seedable function from calendar day to multi-peer table view
// (TableViewAt), which the collector serializes into archives and both
// detection paths consume.
package scenario

import (
	"time"

	"moas/internal/bgp"
	"moas/internal/rib"
	"moas/internal/simnet"
)

// DayDate maps a calendar-day index to its date.
func (sc *Scenario) DayDate(d int) time.Time { return sc.Spec.DayDate(d) }

// DayStamp is the Unix timestamp archives carry on day d's records.
func (sc *Scenario) DayStamp(d int) uint32 { return uint32(sc.DayDate(d).Unix()) }

// IsObserved reports whether calendar day d has archive data.
func (sc *Scenario) IsObserved(d int) bool {
	// ObservedDays is ascending; binary search.
	lo, hi := 0, len(sc.ObservedDays)
	for lo < hi {
		mid := (lo + hi) / 2
		if sc.ObservedDays[mid] < d {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(sc.ObservedDays) && sc.ObservedDays[lo] == d
}

// FinalObservedDay returns the last day with archive data.
func (sc *Scenario) FinalObservedDay() int {
	return sc.ObservedDays[len(sc.ObservedDays)-1]
}

// Cursor walks the calendar maintaining the active episode set
// incrementally — the multi-year driver's O(changes/day) iteration.
type Cursor struct {
	sc     *Scenario
	day    int
	active map[int]bool
}

// NewCursor returns a cursor positioned before day 0.
func (sc *Scenario) NewCursor() *Cursor {
	return &Cursor{sc: sc, day: -1, active: make(map[int]bool)}
}

// Advance moves to the given calendar day (which must be ≥ the current
// position) and returns the IDs of episodes active on it. The returned
// map is the cursor's own state; callers must not mutate it.
func (c *Cursor) Advance(day int) map[int]bool {
	if day < c.day {
		panic("scenario: cursor moved backwards")
	}
	for d := c.day + 1; d <= day; d++ {
		for _, id := range c.sc.startsOn[d] {
			c.active[id] = true
		}
		for _, id := range c.sc.endsOn[d] {
			delete(c.active, id)
		}
	}
	c.day = day
	return c.active
}

// ActiveEpisodes returns episode IDs active on an arbitrary calendar day
// (linear scan; use a Cursor for sequential iteration).
func (sc *Scenario) ActiveEpisodes(day int) []int {
	var out []int
	for i := range sc.Episodes {
		if sc.Episodes[i].ActiveOn(day) {
			out = append(out, i)
		}
	}
	return out
}

// EpisodeRoutes returns the collector's per-peer routes for an episode —
// the same information a full table snapshot would contain for its prefix.
// Results are cached: an episode's advertisements are constant for its
// lifetime.
func (sc *Scenario) EpisodeRoutes(id int) []rib.PeerRoute {
	if sc.routeCache == nil {
		sc.routeCache = make(map[int][]rib.PeerRoute)
	}
	if rs, ok := sc.routeCache[id]; ok {
		return rs
	}
	rs := sc.EpisodeRoutesNoCache(id)
	sc.routeCache[id] = rs
	return rs
}

// EpisodeRoutesNoCache materializes an episode's collector routes without
// retaining them — the multi-year driver summarizes tens of thousands of
// episodes and must not hold every route set alive.
func (sc *Scenario) EpisodeRoutesNoCache(id int) []rib.PeerRoute {
	e := &sc.Episodes[id]
	return sc.wrapVantageRoutes(e.Prefix, sc.Net.CollectorPaths(e.Advertisements(sc.Net)))
}

// wrapVantageRoutes converts simulator vantage routes into the RIB layer's
// peer-route form (peer IDs are vantage positions).
func (sc *Scenario) wrapVantageRoutes(prefix bgp.Prefix, vrs []simnet.VantageRoute) []rib.PeerRoute {
	out := make([]rib.PeerRoute, 0, len(vrs))
	for _, vr := range vrs {
		out = append(out, rib.PeerRoute{
			PeerID: sc.peerID(vr.Vantage),
			PeerAS: vr.Vantage,
			Route: bgp.Route{
				Prefix: prefix,
				Attrs:  &bgp.Attrs{Origin: bgp.OriginIGP, ASPath: vr.Path},
			},
		})
	}
	return out
}

// peerID returns the collector peer index of a vantage AS.
func (sc *Scenario) peerID(v bgp.ASN) uint16 {
	for i, a := range sc.Vantages {
		if a == v {
			return uint16(i)
		}
	}
	return 0
}

// AggregateRoutes returns the AS_SET-terminated routes for one aggregate:
// each vantage's path to the aggregating AS with the set appended — the
// §III exclusion case.
func (sc *Scenario) AggregateRoutes(a Aggregate) []rib.PeerRoute {
	vrs := sc.Net.CollectorPaths(simnet.AdvertiseSingle(a.Aggregator))
	out := make([]rib.PeerRoute, 0, len(vrs))
	for _, vr := range vrs {
		path := append(vr.Path.Clone(), bgp.Segment{
			Type: bgp.SegSet, ASes: append([]bgp.ASN(nil), a.SetMembers...),
		})
		out = append(out, rib.PeerRoute{
			PeerID: sc.peerID(vr.Vantage),
			PeerAS: vr.Vantage,
			Route: bgp.Route{
				Prefix: a.Prefix,
				Attrs:  &bgp.Attrs{Origin: bgp.OriginIGP, ASPath: path, AtomicAggregate: true},
			},
		})
	}
	return out
}

// TableViewAt materializes the complete multi-peer table for one calendar
// day: the non-conflicted background, every active episode's routes, and
// the AS_SET aggregates. This is the full-fidelity path used by tests,
// examples and MRT archive generation; the multi-year reproduction uses
// the incremental cursor (proven equivalent in the driver's tests).
func (sc *Scenario) TableViewAt(day int) *rib.TableView {
	view := rib.NewTableView()
	for _, p := range sc.BackgroundPool {
		owner := sc.Plan.Owner[p]
		for _, pr := range sc.wrapVantageRoutes(p, sc.Net.CollectorPaths(simnet.AdvertiseSingle(owner))) {
			view.Add(pr)
		}
	}
	for _, id := range sc.ActiveEpisodes(day) {
		for _, pr := range sc.EpisodeRoutes(id) {
			view.Add(pr)
		}
	}
	for _, a := range sc.AggregatePrefixes {
		for _, pr := range sc.AggregateRoutes(a) {
			view.Add(pr)
		}
	}
	return view
}
