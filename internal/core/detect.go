package core

import (
	"sort"

	"moas/internal/bgp"
	"moas/internal/rib"
)

// ConflictObs is one conflict as observed on one day.
type ConflictObs struct {
	Prefix  bgp.Prefix
	Origins []bgp.ASN // ascending, ≥2
	Class   Class
}

// DayObservation summarizes one day's detection pass.
type DayObservation struct {
	Day           int
	Conflicts     []ConflictObs
	TotalPrefixes int // prefixes examined
	ExcludedASSet int // routes skipped for ending in an AS_SET
}

// Count returns the day's MOAS conflict count — the quantity of Fig. 1.
func (o *DayObservation) Count() int { return len(o.Conflicts) }

// Detector runs per-day MOAS detection and feeds the cross-day registry.
// The zero value is not usable; call NewDetector.
type Detector struct {
	reg *Registry
}

// NewDetector returns a detector with a fresh registry.
func NewDetector() *Detector { return &Detector{reg: NewRegistry()} }

// Registry exposes the accumulated conflict records.
func (d *Detector) Registry() *Registry { return d.reg }

// ObservePrefix examines one prefix's route set for the given day,
// recording a conflict when two or more distinct origins appear. It
// returns the observation appended to obs (obs may be nil when only
// registry effects are wanted) and reports whether a conflict was found.
func (d *Detector) ObservePrefix(day int, prefix bgp.Prefix, routes []rib.PeerRoute, obs *DayObservation) bool {
	origins, excluded := rib.OriginsOf(routes)
	if obs != nil {
		obs.TotalPrefixes++
		obs.ExcludedASSet += excluded
	}
	if len(origins) < 2 {
		return false
	}
	class := ClassifyRoutes(routes)
	d.reg.Record(day, prefix, origins, class)
	if obs != nil {
		obs.Conflicts = append(obs.Conflicts, ConflictObs{Prefix: prefix, Origins: origins, Class: class})
	}
	return true
}

// ObserveView runs a full-scan detection pass over a complete multi-peer
// table snapshot — the paper's per-day methodology, run as-is over parsed
// archive data. Conflicts are reported in canonical prefix order.
func (d *Detector) ObserveView(day int, view *rib.TableView) DayObservation {
	obs := DayObservation{Day: day}
	view.Walk(func(p bgp.Prefix, routes []rib.PeerRoute) bool {
		d.ObservePrefix(day, p, routes, &obs)
		return true
	})
	sort.Slice(obs.Conflicts, func(i, j int) bool {
		return obs.Conflicts[i].Prefix.Compare(obs.Conflicts[j].Prefix) < 0
	})
	return obs
}
