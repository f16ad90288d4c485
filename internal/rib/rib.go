// Package rib implements the routing-table substrate: the multi-peer
// TableView the MOAS detector consumes (the stand-in for a Route Views
// daily snapshot) and the origin-set helpers over its route lists.
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
