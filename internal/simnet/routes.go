// Package simnet simulates policy-constrained BGP route propagation over
// an AS topology: the valley-free (Gao-Rexford) export model, per-vantage
// AS-path computation, and the advertisement primitives that produce every
// MOAS-conflict cause the paper discusses — multi-homing without BGP,
// private-AS substitution, exchange-point prefixes, split-view traffic
// engineering, and false originations.
package simnet

import (
	"fmt"
	"sort"
	"strings"

	"moas/internal/bgp"
	"moas/internal/topology"
)

// Route preference classes, ordered best-first: an AS prefers routes
// learned from customers over peers over providers (Gao-Rexford).
const (
	classSelf     int8 = 0
	classCustomer int8 = 1
	classPeer     int8 = 2
	classProvider int8 = 3
	classNone     int8 = 0x7F
)

// RouteTable holds, for one advertisement root, every AS's chosen route
// toward the root: preference class, hop count and next hop. It is the
// unit the Net caches and reuses across prefixes and days.
type RouteTable struct {
	root  bgp.ASN
	class []int8
	hops  []int32
	next  []int32 // dense index of the next hop toward root; -1 at root
}

// Reachable reports whether the AS at dense index i has any route.
func (t *RouteTable) reachable(i int) bool { return t.class[i] != classNone }

// Net wraps a topology with cached propagation state.
type Net struct {
	G *topology.Graph

	cache map[string]*RouteTable
	// pathCache memoizes reconstructed vantage paths per route table.
	pathCache map[pathKey]bgp.Path

	// vantages and vsCache back CollectorPaths (see collector_paths.go).
	vantages []bgp.ASN
	vsCache  map[string]*vantageSummary
}

type pathKey struct {
	table   *RouteTable
	vantage bgp.ASN
}

// New returns a simulator over g.
func New(g *topology.Graph) *Net {
	return &Net{
		G:         g,
		cache:     make(map[string]*RouteTable),
		pathCache: make(map[pathKey]bgp.Path),
	}
}

// cacheKey canonicalizes (root, firstHops).
func cacheKey(root bgp.ASN, firstHops []bgp.ASN) string {
	if len(firstHops) == 0 {
		return root.String()
	}
	hs := append([]bgp.ASN(nil), firstHops...)
	sort.Slice(hs, func(i, j int) bool { return hs[i] < hs[j] })
	var b strings.Builder
	b.WriteString(root.String())
	for _, h := range hs {
		fmt.Fprintf(&b, "|%d", h)
	}
	return b.String()
}

// Routes computes (or returns cached) the route table for an advertisement
// rooted at root. If firstHops is non-empty, only those neighbors of root
// hear the advertisement — the selective-announcement knob used for
// split-view and single-provider configurations.
func (n *Net) Routes(root bgp.ASN, firstHops []bgp.ASN) *RouteTable {
	key := cacheKey(root, firstHops)
	if t, ok := n.cache[key]; ok {
		return t
	}
	t := n.propagate(root, firstHops)
	n.cache[key] = t
	return t
}

// propagate runs the three-stage valley-free computation:
//
//	stage A   customer routes climb provider links from the root;
//	stage B   ASes holding customer routes (or the root) export to peers;
//	stage C   everything flows down customer links.
//
// Selection at every AS is (class, hops, lowest next-hop AS), giving a
// deterministic routing tree.
func (n *Net) propagate(root bgp.ASN, firstHops []bgp.ASN) *RouteTable {
	g := n.G
	size := g.Len()
	t := &RouteTable{
		root:  root,
		class: make([]int8, size),
		hops:  make([]int32, size),
		next:  make([]int32, size),
	}
	for i := range t.class {
		t.class[i] = classNone
		t.next[i] = -1
	}
	ri := g.Index(root)
	if ri < 0 {
		return t
	}
	t.class[ri] = classSelf

	allowed := func(to bgp.ASN) bool { return true }
	if len(firstHops) > 0 {
		set := make(map[bgp.ASN]bool, len(firstHops))
		for _, h := range firstHops {
			set[h] = true
		}
		allowed = func(to bgp.ASN) bool { return set[to] }
	}

	// Stage A: BFS up provider links. Frontier kept in ascending AS order
	// so that the first writer for any AS is the lowest-numbered next hop
	// among minimal-hop candidates.
	frontier := []int{ri}
	for len(frontier) > 0 {
		sort.Slice(frontier, func(a, b int) bool { return g.ByIndex(frontier[a]) < g.ByIndex(frontier[b]) })
		var next []int
		for _, ui := range frontier {
			u := g.ByIndex(ui)
			for _, e := range g.Neighbors(u) {
				if e.Rel != topology.RelProvider {
					continue
				}
				if ui == ri && !allowed(e.To) {
					continue
				}
				vi := g.Index(e.To)
				if t.class[vi] != classNone {
					continue
				}
				t.class[vi] = classCustomer
				t.hops[vi] = t.hops[ui] + 1
				t.next[vi] = int32(ui)
				next = append(next, vi)
			}
		}
		frontier = next
	}

	// Stage B: single peer hop from every customer-route holder.
	// Sources sorted by (hops, ASN) so acceptance order is deterministic.
	var sources []int
	for i := range t.class {
		if t.class[i] <= classCustomer {
			sources = append(sources, i)
		}
	}
	sort.Slice(sources, func(a, b int) bool {
		ia, ib := sources[a], sources[b]
		if t.hops[ia] != t.hops[ib] {
			return t.hops[ia] < t.hops[ib]
		}
		return g.ByIndex(ia) < g.ByIndex(ib)
	})
	for _, ui := range sources {
		u := g.ByIndex(ui)
		for _, e := range g.Neighbors(u) {
			if e.Rel != topology.RelPeer {
				continue
			}
			if ui == ri && !allowed(e.To) {
				continue
			}
			vi := g.Index(e.To)
			if t.class[vi] != classNone { // already has an equal-or-better route
				continue
			}
			t.class[vi] = classPeer
			t.hops[vi] = t.hops[ui] + 1
			t.next[vi] = int32(ui)
		}
	}

	// Stage C: flow down customer links from every route holder, processed
	// in ascending (hops, ASN) buckets for determinism.
	type seed struct{ idx int }
	buckets := map[int32][]int{}
	var maxHop int32
	for i := range t.class {
		if t.class[i] != classNone {
			buckets[t.hops[i]] = append(buckets[t.hops[i]], i)
			if t.hops[i] > maxHop {
				maxHop = t.hops[i]
			}
		}
	}
	for h := int32(0); h <= maxHop; h++ {
		bucket := buckets[h]
		sort.Slice(bucket, func(a, b int) bool { return g.ByIndex(bucket[a]) < g.ByIndex(bucket[b]) })
		for _, ui := range bucket {
			u := g.ByIndex(ui)
			for _, e := range g.Neighbors(u) {
				if e.Rel != topology.RelCustomer {
					continue
				}
				if ui == ri && !allowed(e.To) {
					continue
				}
				vi := g.Index(e.To)
				if t.class[vi] != classNone {
					continue
				}
				t.class[vi] = classProvider
				t.hops[vi] = t.hops[ui] + 1
				t.next[vi] = int32(ui)
				if t.hops[vi] > maxHop {
					maxHop = t.hops[vi]
					// bucket map grows as we discover deeper levels
				}
				buckets[t.hops[vi]] = append(buckets[t.hops[vi]], vi)
			}
		}
	}
	return t
}

// PathFrom reconstructs the AS path from vantage v to the table's root:
// [v, ..., root]. ok is false when v has no route. Paths are memoized.
func (n *Net) PathFrom(t *RouteTable, v bgp.ASN) (bgp.Path, bool) {
	vi := n.G.Index(v)
	if vi < 0 || !t.reachable(vi) {
		return nil, false
	}
	key := pathKey{table: t, vantage: v}
	if p, ok := n.pathCache[key]; ok {
		return p, true
	}
	var ases []bgp.ASN
	for i := vi; ; {
		ases = append(ases, n.G.ByIndex(i))
		if t.next[i] < 0 {
			break
		}
		i = int(t.next[i])
	}
	p := bgp.Path{{Type: bgp.SegSequence, ASes: ases}}
	n.pathCache[key] = p
	return p, true
}
