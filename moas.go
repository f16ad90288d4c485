// Package moas reproduces "An Analysis of BGP Multiple Origin AS (MOAS)
// Conflicts" (Zhao et al., IMW 2001): detection of prefixes originated by
// multiple autonomous systems in multi-peer BGP table snapshots, the
// duration and classification analysis of the paper's evaluation, and a
// calibrated 1279-day synthetic Route Views archive to run it on.
//
// The package is a facade over the implementation layers (BGP and MRT
// codecs, routing table substrate, topology and policy-routing simulator,
// scenario generator, detection core, analysis). The typical workflow:
//
//	study := moas.NewStudy(moas.FullScale())
//	report, err := study.Run()
//	// report.Fig2() → the paper's yearly-median table, etc.
//
// Domain types (Prefix, Path, Class, …) are aliased here so downstream
// code can use them without reaching into internal packages.
package moas

import (
	"time"

	"moas/internal/analysis"
	"moas/internal/bgp"
	"moas/internal/core"
	"moas/internal/driver"
	"moas/internal/scenario"
)

// Core domain types, re-exported.
type (
	// Prefix is a CIDR prefix (comparable, canonical).
	Prefix = bgp.Prefix
	// ASN is an autonomous system number.
	ASN = bgp.ASN
	// Path is a BGP AS path (sequences and sets).
	Path = bgp.Path
	// Route binds a prefix to its path attributes.
	Route = bgp.Route
	// Class is the paper's §V conflict classification.
	Class = core.Class
	// Conflict is one prefix's lifetime conflict record.
	Conflict = core.Conflict
	// Registry accumulates conflicts across a study.
	Registry = core.Registry
	// DayStats is one observed day's aggregate detection output.
	DayStats = analysis.DayStats
	// Spec parameterizes a scenario; obtain one from FullScale or
	// SmallScale and adjust.
	Spec = scenario.Spec
	// Scenario is a materialized study input.
	Scenario = scenario.Scenario
	// Episode is one conflict's ground truth.
	Episode = scenario.Episode
	// Cause labels an episode's ground-truth cause.
	Cause = scenario.Cause
)

// Classification values (§V).
const (
	ClassOrigTranAS    = core.ClassOrigTranAS
	ClassSplitView     = core.ClassSplitView
	ClassDistinctPaths = core.ClassDistinctPaths
	ClassRelated       = core.ClassRelated
)

// Ground-truth causes (§VI).
const (
	CauseMisconfig      = scenario.CauseMisconfig
	CauseTransition     = scenario.CauseTransition
	CauseStaticDisjoint = scenario.CauseStaticDisjoint
	CausePrivateASE     = scenario.CausePrivateASE
	CauseOrigTran       = scenario.CauseOrigTran
	CauseSplitView      = scenario.CauseSplitView
	CauseExchangePoint  = scenario.CauseExchangePoint
	CauseHijackStorm    = scenario.CauseHijackStorm
)

// Convenience constructors, re-exported.
var (
	// ParsePrefix parses "a.b.c.d/len".
	ParsePrefix = bgp.ParsePrefix
	// MustParsePrefix panics on error (tests, literals).
	MustParsePrefix = bgp.MustParsePrefix
	// ParsePath parses "701 1239 {7018,3356}".
	ParsePath = bgp.ParsePath
	// MustParsePath panics on error.
	MustParsePath = bgp.MustParsePath
	// ClassifyPair classifies two AS paths with distinct origins.
	ClassifyPair = core.ClassifyPair
)

// FullScale returns the paper-scale scenario: 1997-11-08 → 2001-07-18,
// 1279 observed days, calibrated to the published aggregates. A full run
// takes a few seconds.
func FullScale() Spec { return scenario.DefaultSpec() }

// SmallScale returns a two-month scenario sized for tests and quick
// experimentation.
func SmallScale() Spec { return scenario.TestSpec() }

// Study is a configured reproduction run.
type Study struct {
	spec scenario.Spec

	// Watch lists ASes whose daily conflict involvement is tracked
	// (defaults to the incident ASes 8584 and 15412).
	Watch []ASN
	// WatchSeqs lists consecutive AS pairs tracked across paths
	// (defaults to the 2001 incident signature 3561→15412).
	WatchSeqs [][2]ASN
	// Progress, when non-nil, receives coarse progress lines.
	Progress func(string)
}

// NewStudy returns a study over the given scenario spec with the paper's
// incident watches preconfigured.
func NewStudy(spec Spec) *Study {
	return &Study{
		spec:      spec,
		Watch:     []ASN{8584, 15412},
		WatchSeqs: [][2]ASN{{3561, 15412}},
	}
}

// Spec returns the study's scenario spec.
func (s *Study) Spec() Spec { return s.spec }

// Run builds the scenario and executes the incremental detection driver.
func (s *Study) Run() (*Report, error) {
	sc, err := scenario.Build(s.spec)
	if err != nil {
		return nil, err
	}
	res, err := driver.RunScenario(sc, driver.Config{
		Watch:     s.Watch,
		WatchSeqs: s.WatchSeqs,
		Progress:  s.Progress,
	})
	if err != nil {
		return nil, err
	}
	return &Report{Result: res, watch: s.Watch, watchSeqs: s.WatchSeqs}, nil
}

// Date is a convenience constructor for UTC civil dates.
func Date(year int, month time.Month, day int) time.Time {
	return time.Date(year, month, day, 0, 0, 0, 0, time.UTC)
}

// Re-exported analysis row types.
type (
	// Fig1Point is one day of the conflict-count series.
	Fig1Point = analysis.Fig1Point
	// Fig1Summary carries Fig. 1's headline aggregates.
	Fig1Summary = analysis.Fig1Summary
	// Fig2Row is one year of the median table.
	Fig2Row = analysis.Fig2Row
	// Fig4Row is one row of the duration-expectation table.
	Fig4Row = analysis.Fig4Row
	// Fig5Row is one year's per-prefix-length conflict counts.
	Fig5Row = analysis.Fig5Row
	// Fig6Point is one day of the classification series.
	Fig6Point = analysis.Fig6Point
	// DurationSummary carries the §IV-B headline numbers.
	DurationSummary = analysis.DurationSummary
	// Attribution is a §VI-E involvement statement.
	Attribution = analysis.Attribution
	// ValidityEval scores an invalid-conflict predictor (§VII future work).
	ValidityEval = analysis.ValidityEval
)
