package simnet

import (
	"sort"

	"moas/internal/bgp"
)

// Advertisement is one origination of a prefix: the AS that appears as the
// path origin, the AS where propagation starts (usually the same), and an
// optional restriction on which of the root's neighbors hear it.
//
// Root != Origin models cases where the path's last hop is not the AS that
// actually injected the route into BGP: a transit AS announcing a customer
// origin to a subset of its neighbors (split view) keeps Root = transit,
// Origin = customer.
type Advertisement struct {
	Origin    bgp.ASN
	Root      bgp.ASN   // zero value means Origin
	FirstHops []bgp.ASN // nil means all of Root's neighbors
}

// root returns the effective propagation root.
func (a Advertisement) root() bgp.ASN {
	if a.Root != 0 {
		return a.Root
	}
	return a.Origin
}

// VantageRoute is the route one vantage AS would export to the collector
// for a prefix: the vantage and the AS path ([vantage ... origin]).
type VantageRoute struct {
	Vantage bgp.ASN
	Path    bgp.Path
}

// VantagePaths computes, for each vantage AS, the single route it selects
// among the prefix's advertisements — exactly the per-peer view a route
// collector records. Vantages with no route are omitted. Selection is the
// Gao-Rexford preference (class, hops, lowest origin AS), deterministic for
// a fixed topology.
func (n *Net) VantagePaths(vantages []bgp.ASN, advs []Advertisement) []VantageRoute {
	if len(advs) == 0 {
		return nil
	}
	type cand struct {
		table *RouteTable
		adv   Advertisement
	}
	cands := make([]cand, 0, len(advs))
	for _, a := range advs {
		cands = append(cands, cand{table: n.Routes(a.root(), a.FirstHops), adv: a})
	}
	out := make([]VantageRoute, 0, len(vantages))
	for _, v := range vantages {
		vi := n.G.Index(v)
		if vi < 0 {
			continue
		}
		best := -1
		var bestClass int8
		var bestHops int32
		for ci, c := range cands {
			if !c.table.reachable(vi) {
				continue
			}
			cl, hops := c.table.class[vi], c.table.hops[vi]
			if c.adv.root() != c.adv.Origin {
				hops++ // the appended origin hop
			}
			if best < 0 || cl < bestClass || (cl == bestClass && hops < bestHops) ||
				(cl == bestClass && hops == bestHops && c.adv.Origin < cands[best].adv.Origin) {
				best, bestClass, bestHops = ci, cl, hops
			}
		}
		if best < 0 {
			continue
		}
		c := cands[best]
		p, ok := n.PathFrom(c.table, v)
		if !ok {
			continue
		}
		if c.adv.root() != c.adv.Origin {
			p = appendOrigin(p, c.adv.Origin)
		}
		out = append(out, VantageRoute{Vantage: v, Path: p})
	}
	return out
}

// appendOrigin extends a reconstructed path with the true origin without
// mutating the memoized path.
func appendOrigin(p bgp.Path, origin bgp.ASN) bgp.Path {
	ases := make([]bgp.ASN, 0, len(p[0].ASes)+1)
	ases = append(ases, p[0].ASes...)
	ases = append(ases, origin)
	return bgp.Path{{Type: bgp.SegSequence, ASes: ases}}
}

// NeighborHalves partitions t's neighbors into two deterministic halves
// (by position in ascending AS order), the export split used to model
// split-view traffic engineering.
func (n *Net) NeighborHalves(t bgp.ASN) (even, odd []bgp.ASN) {
	var all []bgp.ASN
	for _, e := range n.G.Neighbors(t) {
		all = append(all, e.To)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for i, a := range all {
		if i%2 == 0 {
			even = append(even, a)
		} else {
			odd = append(odd, a)
		}
	}
	return even, odd
}

// Cause constructors: each returns the advertisement set that produces one
// of the paper's conflict causes (§VI). The scenario layer binds them to
// prefixes and days.

// AdvertiseSingle is the normal case: one origin, announced everywhere.
func AdvertiseSingle(owner bgp.ASN) []Advertisement {
	return []Advertisement{{Origin: owner}}
}

// AdvertiseOrigTranAS models a provider that originates a customer prefix
// itself (a static-route arrangement, §VI-B) on part of its border while
// still passing the customer's BGP announcement elsewhere: half the
// provider's neighbors hear (… provider), the other half hear
// (… provider customer). This is the OrigTranAS signature — the provider
// appears as origin on one path and as transit on the other.
func (n *Net) AdvertiseOrigTranAS(provider, customer bgp.ASN) []Advertisement {
	even, odd := n.NeighborHalves(provider)
	return []Advertisement{
		{Origin: provider, FirstHops: even},
		{Origin: customer, Root: provider, FirstHops: odd},
	}
}

// AdvertiseDisjointStatic models the same static-route multihoming but
// with the owner's BGP announcement confined to its primary provider, so
// the two origins' paths stay disjoint (the DistinctPaths signature).
func AdvertiseDisjointStatic(owner, primary, static bgp.ASN) []Advertisement {
	return []Advertisement{
		{Origin: owner, FirstHops: []bgp.ASN{primary}},
		{Origin: static},
	}
}

// AdvertisePrivateASE models AS-number substitution on egress (§VI-C):
// the customer's private AS is stripped, so each provider appears to
// originate the prefix.
func AdvertisePrivateASE(providers ...bgp.ASN) []Advertisement {
	advs := make([]Advertisement, len(providers))
	for i, p := range providers {
		advs[i] = Advertisement{Origin: p}
	}
	return advs
}

// AdvertiseExchangePoint models an exchange-point mesh prefix (§VI-A):
// every member AS originates it.
func AdvertiseExchangePoint(members ...bgp.ASN) []Advertisement {
	return AdvertisePrivateASE(members...)
}

// AdvertiseSplitView models a transit AS announcing two customer origins
// to different halves of its neighbors (§V SplitView): paths share the
// transit AS as the penultimate hop but end in different origins.
func (n *Net) AdvertiseSplitView(transit, origin1, origin2 bgp.ASN) []Advertisement {
	even, odd := n.NeighborHalves(transit)
	return []Advertisement{
		{Origin: origin1, Root: transit, FirstHops: even},
		{Origin: origin2, Root: transit, FirstHops: odd},
	}
}

// AdvertiseHijack models a false origination (§VI-E): the legitimate owner
// plus an AS that wrongly originates the same prefix.
func AdvertiseHijack(owner, attacker bgp.ASN) []Advertisement {
	return []Advertisement{{Origin: owner}, {Origin: attacker}}
}
