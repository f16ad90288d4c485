// Package core implements the paper's contribution: detection of Multiple
// Origin AS (MOAS) conflicts in multi-peer BGP table snapshots, the
// cross-day conflict registry that yields the duration analysis, and the
// three-way conflict classification of §V (OrigTranAS, SplitView,
// DistinctPaths).
package core

import (
	"moas/internal/bgp"
	"moas/internal/rib"
)

// Class is the §V conflict classification.
type Class uint8

// Conflict classes. ClassRelated is this implementation's explicit bucket
// for path pairs that share a transit AS away from the penultimate
// position: the paper's three definitions do not cover that case, and
// keeping it separate (rather than silently folding it into a class)
// makes the classifier total. It is reported alongside the paper's three.
const (
	ClassNone Class = iota
	// ClassOrigTranAS: one path's origin AS appears as a transit AS on the
	// other path — an AS announcing itself both as origin and as transit.
	ClassOrigTranAS
	// ClassSplitView: the two paths end in different origins but share the
	// penultimate AS — a transit AS offering different routes to different
	// neighbors.
	ClassSplitView
	// ClassDistinctPaths: two completely disjoint AS paths.
	ClassDistinctPaths
	// ClassRelated: paths overlap somewhere upstream but satisfy none of
	// the paper's three definitions.
	ClassRelated
)

// String names the class as in the paper's Figure 6 legend.
func (c Class) String() string {
	switch c {
	case ClassOrigTranAS:
		return "OrigTranAS"
	case ClassSplitView:
		return "SplitView"
	case ClassDistinctPaths:
		return "DistinctPaths"
	case ClassRelated:
		return "Related"
	}
	return "None"
}

// NumClasses sizes per-class accumulators (index by Class).
const NumClasses = int(ClassRelated) + 1

// ClassifyPair classifies one pair of AS paths with distinct origins.
// It returns ClassNone when either path lacks a usable origin or the
// origins coincide.
func ClassifyPair(p1, p2 bgp.Path) Class {
	o1, ok1 := p1.Origin()
	o2, ok2 := p2.Origin()
	if !ok1 || !ok2 || o1 == o2 {
		return ClassNone
	}
	if pathTransits(p2, o1) || pathTransits(p1, o2) {
		return ClassOrigTranAS
	}
	if a, ok := p1.Penultimate(); ok {
		if b, ok2 := p2.Penultimate(); ok2 && a == b {
			return ClassSplitView
		}
	}
	if disjoint(p1, p2) {
		return ClassDistinctPaths
	}
	return ClassRelated
}

// pathTransits reports whether a appears among p's transit (non-origin)
// ASes.
func pathTransits(p bgp.Path, a bgp.ASN) bool {
	origin, _ := p.Origin()
	if a == origin {
		return false
	}
	return p.Contains(a)
}

// disjoint reports whether the paths share no AS at all.
func disjoint(p1, p2 bgp.Path) bool {
	for _, s := range p1 {
		for _, x := range s.ASes {
			if p2.Contains(x) {
				return false
			}
		}
	}
	return true
}

// ClassifyRoutes classifies a conflicted prefix's route set for one day.
// Every pair of routes with distinct origins is examined and the conflict
// takes the strongest relationship found, in the precedence
// OrigTranAS > SplitView > DistinctPaths > Related. The paper does not
// state its multi-path rule; this precedence is the documented convention
// (DESIGN.md §1) and is exercised by tests.
func ClassifyRoutes(routes []rib.PeerRoute) Class {
	// A prefix rarely has more than a handful of routes; the stack buffer
	// keeps the common case allocation-free.
	var buf [8]bgp.Path
	paths := buf[:0]
	for i := range routes {
		paths = append(paths, routes[i].Route.Path())
	}
	return ClassifyPaths(paths)
}

// ClassifyPaths is ClassifyRoutes over the routes' bare AS paths, for
// callers that do not store routes as rib.PeerRoute values.
func ClassifyPaths(paths []bgp.Path) Class {
	var sawSplit, sawDistinct, sawRelated bool
	for i, pi := range paths {
		oi, ok := pi.Origin()
		if !ok {
			continue
		}
		for _, pj := range paths[i+1:] {
			oj, ok := pj.Origin()
			if !ok || oi == oj {
				continue
			}
			switch ClassifyPair(pi, pj) {
			case ClassOrigTranAS:
				return ClassOrigTranAS // strongest; no need to continue
			case ClassSplitView:
				sawSplit = true
			case ClassDistinctPaths:
				sawDistinct = true
			case ClassRelated:
				sawRelated = true
			}
		}
	}
	switch {
	case sawSplit:
		return ClassSplitView
	case sawDistinct:
		return ClassDistinctPaths
	case sawRelated:
		return ClassRelated
	}
	return ClassNone
}
