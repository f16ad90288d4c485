// Package driver runs a scenario through the MOAS detection pipeline and
// collects the per-day statistics the analysis layer turns into the
// paper's tables and figures.
//
// Two drivers are provided, and they share no state machine. RunScenario
// is the incremental multi-year driver, a thin adapter over the
// conflict-state kernel (internal/kernel) the streaming engine also
// drives: it walks the observation calendar with a cursor and assesses
// each episode exactly once (an episode's advertisement set — hence its
// origin set and classification — is constant for its lifetime, and
// non-conflicted background prefixes cannot enter conflict without an
// episode). RunFullScanScenario is the independent reference: it
// materializes every day's complete multi-peer table and runs the paper's
// full-table methodology over it with core.Detector — no kernel, no lifecycle events, only "two
// or more origins today". The equivalence tests (here, in internal/kernel
// and in internal/stream) hold every kernel-driven path to that
// reference, which is what licenses the fast paths.
package driver

import (
	"fmt"

	"moas/internal/analysis"
	"moas/internal/bgp"
	"moas/internal/core"
	"moas/internal/kernel"
	"moas/internal/rib"
	"moas/internal/scenario"
)

// Config parameterizes a run over a built scenario.
type Config struct {
	// Watch lists ASes whose per-day conflict involvement is tracked
	// (spike attribution, §VI-E).
	Watch []bgp.ASN

	// WatchSeqs lists AS-path subsequences (e.g. 3561→15412) whose
	// per-day occurrence across conflicts is tracked.
	WatchSeqs [][2]bgp.ASN

	// Progress, when non-nil, receives coarse progress lines.
	Progress func(string)
}

// Result is a completed run.
type Result struct {
	Scenario *scenario.Scenario
	Registry *core.Registry
	Days     []analysis.DayStats
	// FinalDay is the last observed calendar day (for ongoing counts).
	FinalDay int
}

// tally is what one conflict adds to a day's statistics: its class, its
// prefix length, and which watched ASes and AS pairs it involves. Both
// drivers count through it, so the accounting exists once.
type tally struct {
	class    core.Class
	bits     uint8
	involves []bool // aligned with Config.Watch
	seqHits  []bool // aligned with Config.WatchSeqs
}

// newTally assesses one conflict — its origin set, class and the routes
// observed for its prefix — against the run's watches.
func newTally(cfg Config, c core.ConflictObs, routes []rib.PeerRoute) tally {
	t := tally{
		class:    c.Class,
		bits:     c.Prefix.Bits(),
		involves: make([]bool, len(cfg.Watch)),
		seqHits:  make([]bool, len(cfg.WatchSeqs)),
	}
	for w, a := range cfg.Watch {
		for _, o := range c.Origins {
			if o == a {
				t.involves[w] = true
				break
			}
		}
	}
	for w, seq := range cfg.WatchSeqs {
		for _, pr := range routes {
			if hasSeq(pr.Route.Path(), seq) {
				t.seqHits[w] = true
				break
			}
		}
	}
	return t
}

// addTo counts the conflict into one observed day.
func (t *tally) addTo(ds *analysis.DayStats) {
	ds.Total++
	ds.ByClass[t.class]++
	ds.ByLen[t.bits]++
	for w, hit := range t.involves {
		if hit {
			ds.Involvement[w]++
		}
	}
	for w, hit := range t.seqHits {
		if hit {
			ds.SeqHits[w]++
		}
	}
}

// newDay starts an observed day's statistics.
func newDay(sc *scenario.Scenario, cfg Config, day int) analysis.DayStats {
	return analysis.DayStats{
		Day:         day,
		Date:        sc.DayDate(day),
		Involvement: make([]int, len(cfg.Watch)),
		SeqHits:     make([]int, len(cfg.WatchSeqs)),
	}
}

// RunScenario executes the incremental driver over a built scenario
// (callers reuse one scenario across experiments; builds are expensive).
// It drives the kernel with episode-granular observations: one Apply when
// a visible episode's prefix enters or changes hands, one empty Apply
// when it leaves, and a CloseDay per observed day — O(changes + actives)
// per day instead of O(table).
func RunScenario(sc *scenario.Scenario, cfg Config) (*Result, error) {
	k := kernel.New(kernel.Options{})
	res := &Result{
		Scenario: sc,
		FinalDay: sc.FinalObservedDay(),
	}

	// summaries caches each episode's conflict and tally, which are
	// invariant over the episode's life; nil marks an episode invisible at
	// the collector (fewer than two origins there: never a conflict).
	type summary struct {
		core.ConflictObs
		tally
	}
	summaries := make(map[int]*summary)
	summarize := func(id int) *summary {
		s, ok := summaries[id]
		if !ok {
			// Materialize the routes, extract the facts, let the routes go.
			routes := sc.EpisodeRoutesNoCache(id)
			if origins, _ := rib.OriginsOf(routes); len(origins) >= 2 {
				c := core.ConflictObs{Prefix: sc.Episodes[id].Prefix, Origins: origins, Class: core.ClassifyRoutes(routes)}
				s = &summary{c, newTally(cfg, c, routes)}
			}
			summaries[id] = s
		}
		return s
	}

	cursor := sc.NewCursor()
	// live maps each prefix currently tracked by the kernel to the visible
	// episode that put it there. At most one active episode holds a prefix
	// at a time (the scenario's prefix pool guarantees it), so the map is
	// also how episode departures translate to conflict-end observations.
	live := make(map[bgp.Prefix]int)
	for i, day := range sc.ObservedDays {
		active := cursor.Advance(day)
		ds := newDay(sc, cfg, day)
		// Episodes that left the active set dissolve their conflicts first,
		// so a same-day successor episode on a reused prefix observes a
		// clean end→start transition.
		for p, id := range live {
			if !active[id] {
				k.Apply(kernel.Obs{Day: day, Prefix: p})
				delete(live, p)
			}
		}
		for id := range active {
			s := summarize(id)
			if s == nil {
				continue
			}
			if owner, ok := live[s.Prefix]; !ok || owner != id {
				k.Apply(kernel.Obs{Day: day, Prefix: s.Prefix, Origins: s.Origins, Class: s.Class})
				live[s.Prefix] = id
			}
			s.addTo(&ds)
		}
		k.CloseDay(day)
		res.Days = append(res.Days, ds)
		if cfg.Progress != nil && (i%200 == 0 || i == len(sc.ObservedDays)-1) {
			cfg.Progress(fmt.Sprintf("day %d/%d (%s): %d conflicts",
				i+1, len(sc.ObservedDays), ds.Date.Format("2006-01-02"), ds.Total))
		}
	}
	res.Registry = k.Registry()
	return res, nil
}

// hasSeq reports whether the consecutive AS pair appears in the path.
func hasSeq(p bgp.Path, seq [2]bgp.ASN) bool {
	for _, seg := range p {
		if seg.Type != bgp.SegSequence {
			continue
		}
		for i := 0; i+1 < len(seg.ASes); i++ {
			if seg.ASes[i] == seq[0] && seg.ASes[i+1] == seq[1] {
				return true
			}
		}
	}
	return false
}

// RunFullScanScenario executes the paper's methodology literally: for
// every observed day it assembles the complete multi-peer table
// (background, episodes, AS_SET aggregates) and full-scans it with
// core.Detector.ObserveView, which records each prefix announced with two
// or more origins that day. It is O(table) per day — used for fidelity
// tests and archive generation, not the 1279-day run. The
// registry is the detector's and the day's statistics are tallied from
// the day's observation, so nothing here shares a state machine with the
// kernel-driven paths it is the reference for.
func RunFullScanScenario(sc *scenario.Scenario, cfg Config) (*Result, error) {
	det := core.NewDetector()
	res := &Result{
		Scenario: sc,
		Registry: det.Registry(),
		FinalDay: sc.FinalObservedDay(),
	}
	for _, day := range sc.ObservedDays {
		view := sc.TableViewAt(day)
		obs := det.ObserveView(day, view)
		ds := newDay(sc, cfg, day)
		for _, c := range obs.Conflicts {
			t := newTally(cfg, c, view.Routes(c.Prefix))
			t.addTo(&ds)
		}
		res.Days = append(res.Days, ds)
	}
	return res, nil
}
