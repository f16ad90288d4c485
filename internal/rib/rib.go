// Package rib implements the routing-table substrate: per-peer
// Adj-RIB-In tables and the multi-peer TableView the MOAS detector
// consumes (the stand-in for a Route Views daily snapshot).
package rib

import (
	"moas/internal/bgp"
)

// PeerRoute is a route as learned from a specific collector peer. PeerID
// disambiguates peers that share an AS (a large ISP exporting from several
// routers, as at Oregon Route Views).
type PeerRoute struct {
	PeerID uint16
	PeerAS bgp.ASN
	Route  bgp.Route
}

// AdjRIBIn is one peer's advertised table as seen by the collector: the
// routes currently announced and not withdrawn.
type AdjRIBIn struct {
	PeerID uint16
	PeerAS bgp.ASN
	routes map[bgp.Prefix]bgp.Route
}

// NewAdjRIBIn returns an empty per-peer table.
func NewAdjRIBIn(peerID uint16, peerAS bgp.ASN) *AdjRIBIn {
	return &AdjRIBIn{PeerID: peerID, PeerAS: peerAS, routes: make(map[bgp.Prefix]bgp.Route)}
}

// Update applies a BGP UPDATE: withdrawals then announcements, as on the
// wire.
func (a *AdjRIBIn) Update(u *bgp.Update) {
	for _, p := range u.Withdrawn {
		delete(a.routes, p)
	}
	if u.Attrs == nil {
		return
	}
	for _, p := range u.NLRI {
		a.routes[p] = bgp.Route{Prefix: p, Attrs: u.Attrs}
	}
}

// Announce inserts or replaces a single route.
func (a *AdjRIBIn) Announce(r bgp.Route) { a.routes[r.Prefix] = r }

// Withdraw removes a prefix, reporting whether it was present.
func (a *AdjRIBIn) Withdraw(p bgp.Prefix) bool {
	_, ok := a.routes[p]
	delete(a.routes, p)
	return ok
}

// Len returns the number of announced prefixes.
func (a *AdjRIBIn) Len() int { return len(a.routes) }

// Lookup returns this peer's route for exactly p.
func (a *AdjRIBIn) Lookup(p bgp.Prefix) (bgp.Route, bool) {
	r, ok := a.routes[p]
	return r, ok
}

// Walk visits every announced route, in no particular order (FromPeers,
// the one consumer, files each route under its prefix).
func (a *AdjRIBIn) Walk(fn func(bgp.Route) bool) {
	for _, r := range a.routes {
		if !fn(r) {
			return
		}
	}
}
