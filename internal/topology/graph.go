// Package topology models the AS-level Internet of the study period: a
// tiered graph of autonomous systems connected by customer-provider and
// peer-peer links (the Gao-Rexford model), plus the assignment of address
// space to ASes. It is the substrate the routing simulator propagates
// routes over.
package topology

import (
	"fmt"
	"sort"

	"moas/internal/bgp"
)

// Rel is the business relationship of a neighbor relative to this AS.
type Rel int8

// Relationship codes.
const (
	// RelProvider marks the neighbor as this AS's transit provider.
	RelProvider Rel = iota
	// RelCustomer marks the neighbor as this AS's customer.
	RelCustomer
	// RelPeer marks a settlement-free peering.
	RelPeer
)

// String names the relationship.
func (r Rel) String() string {
	switch r {
	case RelProvider:
		return "provider"
	case RelCustomer:
		return "customer"
	case RelPeer:
		return "peer"
	}
	return fmt.Sprintf("rel(%d)", int8(r))
}

// Edge is one adjacency: the neighbor AS and its relationship to the owner.
type Edge struct {
	To  bgp.ASN
	Rel Rel
}

// Tier classifies an AS's position in the hierarchy.
type Tier uint8

// Tiers, from the default-free core down.
const (
	Tier1 Tier = 1
	Tier2 Tier = 2
	Tier3 Tier = 3
	// TierStub is an edge AS that provides no transit.
	TierStub Tier = 4
)

// Graph is an AS-level topology. ASes are indexed densely for fast
// traversal; the index assignment is stable across identical construction
// sequences.
type Graph struct {
	asns []bgp.ASN
	idx  map[bgp.ASN]int
	adj  [][]Edge
	tier []Tier
}

// NewGraph returns an empty topology.
func NewGraph() *Graph {
	return &Graph{idx: make(map[bgp.ASN]int)}
}

// AddAS registers an AS with its tier; re-adding an existing AS is an
// error surfaced by panic (construction bugs must not pass silently).
func (g *Graph) AddAS(a bgp.ASN, t Tier) {
	if _, dup := g.idx[a]; dup {
		panic(fmt.Sprintf("topology: duplicate AS %v", a))
	}
	g.idx[a] = len(g.asns)
	g.asns = append(g.asns, a)
	g.adj = append(g.adj, nil)
	g.tier = append(g.tier, t)
}

// Has reports whether a is in the graph.
func (g *Graph) Has(a bgp.ASN) bool { _, ok := g.idx[a]; return ok }

// Len returns the number of ASes.
func (g *Graph) Len() int { return len(g.asns) }

// ASes returns all AS numbers in index order (do not mutate).
func (g *Graph) ASes() []bgp.ASN { return g.asns }

// Index returns the dense index of a, or -1.
func (g *Graph) Index(a bgp.ASN) int {
	if i, ok := g.idx[a]; ok {
		return i
	}
	return -1
}

// ByIndex returns the AS at dense index i.
func (g *Graph) ByIndex(i int) bgp.ASN { return g.asns[i] }

// TierOf returns the tier of a (TierStub for unknown ASes).
func (g *Graph) TierOf(a bgp.ASN) Tier {
	if i, ok := g.idx[a]; ok {
		return g.tier[i]
	}
	return TierStub
}

func (g *Graph) mustIndex(a bgp.ASN) int {
	i, ok := g.idx[a]
	if !ok {
		panic(fmt.Sprintf("topology: unknown AS %v", a))
	}
	return i
}

// Connected reports whether a and b share a link.
func (g *Graph) Connected(a, b bgp.ASN) bool {
	ia := g.mustIndex(a)
	for _, e := range g.adj[ia] {
		if e.To == b {
			return true
		}
	}
	return false
}

// AddTransit records a customer-provider link: customer buys transit from
// provider. Duplicate links panic.
func (g *Graph) AddTransit(provider, customer bgp.ASN) {
	if provider == customer {
		panic("topology: self link")
	}
	if g.Connected(provider, customer) {
		panic(fmt.Sprintf("topology: duplicate link %v-%v", provider, customer))
	}
	ip, ic := g.mustIndex(provider), g.mustIndex(customer)
	g.adj[ip] = append(g.adj[ip], Edge{To: customer, Rel: RelCustomer})
	g.adj[ic] = append(g.adj[ic], Edge{To: provider, Rel: RelProvider})
}

// AddPeering records a settlement-free peer link.
func (g *Graph) AddPeering(a, b bgp.ASN) {
	if a == b {
		panic("topology: self peering")
	}
	if g.Connected(a, b) {
		panic(fmt.Sprintf("topology: duplicate link %v-%v", a, b))
	}
	ia, ib := g.mustIndex(a), g.mustIndex(b)
	g.adj[ia] = append(g.adj[ia], Edge{To: b, Rel: RelPeer})
	g.adj[ib] = append(g.adj[ib], Edge{To: a, Rel: RelPeer})
}

// Neighbors returns a's adjacency list (do not mutate).
func (g *Graph) Neighbors(a bgp.ASN) []Edge { return g.adj[g.mustIndex(a)] }

// neighborsByRel collects neighbors with the given relationship, ascending.
func (g *Graph) neighborsByRel(a bgp.ASN, r Rel) []bgp.ASN {
	var out []bgp.ASN
	for _, e := range g.adj[g.mustIndex(a)] {
		if e.Rel == r {
			out = append(out, e.To)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Providers returns a's transit providers in ascending AS order.
func (g *Graph) Providers(a bgp.ASN) []bgp.ASN { return g.neighborsByRel(a, RelProvider) }

// Customers returns a's customers in ascending AS order.
func (g *Graph) Customers(a bgp.ASN) []bgp.ASN { return g.neighborsByRel(a, RelCustomer) }

// Peers returns a's settlement-free peers in ascending AS order.
func (g *Graph) Peers(a bgp.ASN) []bgp.ASN { return g.neighborsByRel(a, RelPeer) }

// Validate checks structural invariants: symmetric adjacency with
// complementary relationships and no dangling AS references. It returns
// the first violation found.
func (g *Graph) Validate() error {
	for i, es := range g.adj {
		from := g.asns[i]
		for _, e := range es {
			j, ok := g.idx[e.To]
			if !ok {
				return fmt.Errorf("topology: %v links to unknown %v", from, e.To)
			}
			var want Rel
			switch e.Rel {
			case RelProvider:
				want = RelCustomer
			case RelCustomer:
				want = RelProvider
			case RelPeer:
				want = RelPeer
			}
			found := false
			for _, back := range g.adj[j] {
				if back.To == from && back.Rel == want {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("topology: link %v->%v (%v) has no %v back edge", from, e.To, e.Rel, want)
			}
		}
	}
	return nil
}
