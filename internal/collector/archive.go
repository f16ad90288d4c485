package collector

import (
	"io"
	"maps"
	"sort"

	"moas/internal/rib"
	"moas/internal/scenario"
)

// WriteUpdateArchive serializes a scenario's complete BGP4MP update
// archive: a bootstrap burst announcing the first observed day's full
// table from empty per-peer state, followed by the derived UPDATE stream
// between each consecutive pair of observed days, every message stamped
// with its day's date. Replaying the archive over empty Adj-RIB-In state
// reconstructs each observed day's snapshot in sequence — the input the
// live streaming detection engine (internal/stream) consumes.
//
// Only the first day's table is materialized. A table changes from one
// observed day to the next only where an episode left or entered the
// active set (background and aggregates never move), so each later day
// is the diff of two small views — the routes of the episodes that left
// and of those that entered — and an unchanged prefix, absent from both,
// contributes nothing to either. The bytes are those of diffing the full
// tables day by day (a test keeps that as the reference); the cost per
// day is O(changes), not O(table).
func WriteUpdateArchive(w io.Writer, sc *scenario.Scenario) error {
	cursor := sc.NewCursor()
	first := sc.ObservedDays[0]
	if err := WriteViewUpdates(w, rib.NewTableView(), sc.TableViewAt(first), sc.DayStamp(first)); err != nil {
		return err
	}
	// The cursor's set is its own and changes under Advance, hence a copy.
	prev := maps.Clone(cursor.Advance(first))
	for _, day := range sc.ObservedDays[1:] {
		active := cursor.Advance(day)
		left, entered := episodeView(sc, prev, active), episodeView(sc, active, prev)
		if err := WriteViewUpdates(w, left, entered, sc.DayStamp(day)); err != nil {
			return err
		}
		prev = maps.Clone(active)
	}
	return nil
}

// episodeView holds the collector routes of the episodes in a but not in
// b, added in ascending id order. The routes are not cached: the
// full-scale archive walks tens of thousands of episodes and needs each
// route set for one diff.
func episodeView(sc *scenario.Scenario, a, b map[int]bool) *rib.TableView {
	var ids []int
	for id := range a {
		if !b[id] {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	view := rib.NewTableView()
	for _, id := range ids {
		for _, pr := range sc.EpisodeRoutesNoCache(id) {
			view.Add(pr)
		}
	}
	return view
}
