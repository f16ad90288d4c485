package bench

import (
	"fmt"
	"sort"

	"moas/internal/bgp"
	"moas/internal/core"
	"moas/internal/synth"
)

// tally counts attempted and failed operations for failed_share and
// keeps the first few failure descriptions.
type tally struct {
	attempted, failed int
	failures          []string
}

const maxFailuresKept = 8

// add counts n attempted operations.
func (t *tally) add(n int) { t.attempted += n }

// fail counts n failed operations (already counted as attempted).
func (t *tally) fail(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	t.failed += n
	if len(t.failures) < maxFailuresKept {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

// check counts one attempted operation that failed unless ok.
func (t *tally) check(ok bool, format string, args ...any) {
	t.add(1)
	if !ok {
		t.fail(1, format, args...)
	}
}

// finish stamps the tally onto a result.
func (t *tally) finish(r *Result) {
	r.Attempted, r.Failed, r.Failures = t.attempted, t.failed, t.failures
	r.Correct = t.failed == 0 && t.attempted > 0
	if t.attempted > 0 {
		r.set("failed_share", float64(t.failed)/float64(t.attempted))
	}
}

// episodesDoc is GET /episodes' response.
type episodesDoc struct {
	Count    int `json:"count"`
	Episodes []struct {
		Prefix  string    `json:"prefix"`
		Origins []bgp.ASN `json:"origins"`
		Class   string    `json:"class"`
		Start   int       `json:"start_day"`
		End     int       `json:"end_day"`
		Open    bool      `json:"open"`
	} `json:"episodes"`
}

// summaryDoc is GET /episodes/summary's response.
type summaryDoc struct {
	Total   int                  `json:"total"`
	Open    int                  `json:"open"`
	Closed  int                  `json:"closed"`
	ByClass [core.NumClasses]int `json:"by_class"`
}

// noLimit lifts /episodes' default cap of 1000 for a full readback.
const noLimit = "limit=1000000000"

// checkCounts holds one finished ingest to what the generator knows
// without replaying anything: every update applied, and the episode
// log's fold agreeing with the truth log in total, open, closed and
// per class. replayed is false for the live feed: its truth does not
// record the path pair the class depends on, and the registry behind
// total_conflicts only accrues at day closes, which a live run of
// seconds never reaches. One attempted operation per update and per
// truth episode. It returns the /stats document it read.
func (st *stack) checkCounts(id string, updates int, truth []synth.Episode, replayed bool, t *tally) (stats statsDoc, err error) {
	if err := st.getJSON("/scenarios/"+id+"/stats", &stats); err != nil {
		return stats, err
	}
	t.add(updates)
	if missing := updates - int(stats.Messages); missing != 0 {
		if missing < 0 {
			missing = -missing
		}
		t.fail(missing, "%s: /stats messages %d, generator sent %d", id, stats.Messages, updates)
	}
	var want summaryDoc
	prefixes := make(map[bgp.Prefix]struct{})
	for _, ep := range truth {
		want.Total++
		if ep.Open {
			want.Open++
		} else {
			want.Closed++
		}
		want.ByClass[ep.Class]++
		prefixes[ep.Prefix] = struct{}{}
	}
	if replayed {
		t.check(stats.TotalConflicts == len(prefixes), "%s: /stats total_conflicts %d, truth has %d prefixes", id, stats.TotalConflicts, len(prefixes))
	}
	t.check(stats.ActiveConflicts == want.Open, "%s: /stats active_conflicts %d, truth has %d open", id, stats.ActiveConflicts, want.Open)
	var got summaryDoc
	if err := st.getJSON("/scenarios/"+id+"/episodes/summary", &got); err != nil {
		return stats, err
	}
	if !replayed {
		got.ByClass, want.ByClass = [core.NumClasses]int{}, [core.NumClasses]int{}
	}
	t.add(len(truth))
	if got != want {
		diff := got.Total - want.Total
		if diff < 0 {
			diff = -diff
		}
		t.fail(max(diff, 1), "%s: /episodes/summary %+v, truth %+v", id, got, want)
	}
	return stats, nil
}

// checkEpisodes reads the whole episode log back and requires it to
// equal the truth log episode for episode. withDays is false for live
// scenarios, whose day numbers are wall-clock days the generator does
// not choose; class is then skipped too (it depends on the path pair,
// which the truth of a live feed does not record).
func (st *stack) checkEpisodes(id string, truth []synth.Episode, withDays bool, t *tally) error {
	var doc episodesDoc
	if err := st.getJSON("/scenarios/"+id+"/episodes?"+noLimit, &doc); err != nil {
		return err
	}
	t.add(len(truth))
	if len(doc.Episodes) != len(truth) {
		diff := len(doc.Episodes) - len(truth)
		if diff < 0 {
			diff = -diff
		}
		t.fail(diff, "%s: /episodes returned %d episodes, truth has %d", id, len(doc.Episodes), len(truth))
		return nil
	}
	// Both sides sort by (prefix, start); the truth log is already in
	// that order for synth inputs and in prefix order (one episode per
	// prefix) for the live feed.
	for i := range truth {
		g, w := &doc.Episodes[i], &truth[i]
		ok := g.Prefix == w.Prefix.String() && g.Open == w.Open && len(g.Origins) == len(w.Origins)
		for j := 0; ok && j < len(g.Origins); j++ {
			ok = g.Origins[j] == w.Origins[j]
		}
		if withDays {
			ok = ok && g.Start == w.Start && g.End == w.End && g.Class == w.Class.String()
		}
		if !ok {
			t.fail(1, "%s: episode %d is %s o%v %s [%d,%d] open=%v; truth %s o%v %s [%d,%d] open=%v",
				id, i, g.Prefix, g.Origins, g.Class, g.Start, g.End, g.Open,
				w.Prefix, w.Origins, w.Class, w.Start, w.End, w.Open)
		}
	}
	return nil
}

// registryRows renders a conflict registry as comparable strings,
// sorted by prefix.
func registryRows(reg *core.Registry) []string {
	cs := reg.Conflicts()
	sort.Slice(cs, func(i, j int) bool { return cs[i].Prefix.Compare(cs[j].Prefix) < 0 })
	rows := make([]string, len(cs))
	for i, c := range cs {
		rows[i] = fmt.Sprintf("%s first=%d last=%d days=%d classes=%v origins=%v",
			c.Prefix, c.FirstDay, c.LastDay, c.DaysObserved, c.ClassDays, c.OriginsEver)
	}
	return rows
}

// checkRegistry requires the recovered registry to equal the
// uninterrupted control's row for row.
func checkRegistry(got, want []string, t *tally) {
	t.add(len(want))
	if len(got) != len(want) {
		diff := len(got) - len(want)
		if diff < 0 {
			diff = -diff
		}
		t.fail(diff, "recovered registry has %d rows, control has %d", len(got), len(want))
		return
	}
	for i := range want {
		if got[i] != want[i] {
			t.fail(1, "registry row %d: recovered %q, control %q", i, got[i], want[i])
		}
	}
}
