package serve

import (
	"fmt"
	"net/http"
	"slices"
	"strconv"

	"moas/internal/bgp"
	"moas/internal/core"
	"moas/internal/source"
	"moas/internal/stream"
)

// The live query endpoints: each renders one of the engine's typed query
// results (stream.Engine's ActiveConflicts, Prefix, Involvement, Stats).
// The engine reads through its shard stripe locks, so a handler serves a
// consistent per-shard snapshot while a replay is in flight. On the wire
// prefixes are CIDR strings and classes carry their Figure 6 names, so
// the JSON is self-describing.

type conflictJSON struct {
	Prefix       bgp.Prefix `json:"prefix"`
	Origins      []bgp.ASN  `json:"origins"`
	Class        string     `json:"class"`
	SinceDay     int        `json:"since_day"`
	FirstDay     int        `json:"first_day"`
	LastDay      int        `json:"last_day"`
	DaysObserved int        `json:"days_observed"`
}

// eventJSON is a lifecycle event as an SSE event's body carries it: named
// by its scenario, the scenario-wide event ID and the prefix, as a stream
// interleaves all prefixes.
type eventJSON struct {
	Scenario    string     `json:"scenario,omitempty"`
	ID          uint64     `json:"id,omitempty"`
	Type        string     `json:"type"`
	Day         int        `json:"day"`
	Seq         uint64     `json:"seq"`
	Prefix      bgp.Prefix `json:"prefix"`
	Origins     []bgp.ASN  `json:"origins,omitempty"`
	PrevOrigins []bgp.ASN  `json:"prev_origins,omitempty"`
	Class       string     `json:"class"`
	PrevClass   string     `json:"prev_class"`
}

func eventToJSON(scenario string, id uint64, ev *stream.Event) eventJSON {
	return eventJSON{
		Scenario:    scenario,
		ID:          id,
		Prefix:      ev.Prefix,
		Type:        ev.Type.String(),
		Day:         ev.Day,
		Seq:         ev.Seq,
		Origins:     ev.Origins,
		PrevOrigins: ev.PrevOrigins,
		Class:       ev.Class.String(),
		PrevClass:   ev.PrevClass.String(),
	}
}

// prefixJSON is one prefix's live state and — once it has ever been in
// conflict — lifetime record. Its activations are /episodes?prefix=.
type prefixJSON struct {
	Prefix       bgp.Prefix `json:"prefix"`
	Active       bool       `json:"active"`
	Origins      []bgp.ASN  `json:"origins,omitempty"`
	Class        string     `json:"class"`
	Routes       int        `json:"routes"`
	FirstDay     int        `json:"first_day,omitempty"`
	LastDay      int        `json:"last_day,omitempty"`
	DaysObserved int        `json:"days_observed,omitempty"`
	OriginsEver  []bgp.ASN  `json:"origins_ever,omitempty"`
}

// statsJSON is the per-scenario /stats document: the engine's counters and
// event-derived duration stats, the active conflicts by class name, and
// the scenario's lifecycle state and per-subsystem health — one poll
// answers both "how fast" and "how healthy". Key order is not part of
// the contract.
type statsJSON struct {
	stream.Stats
	ByClass map[string]int `json:"active_by_class"`
	State   State          `json:"state"`
	Health  Health         `json:"health"`
}

// nonNegative parses the query parameter name's value v.
func nonNegative(name, v string) (int, error) {
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad %s %q: want a non-negative integer", name, v)
	}
	return n, nil
}

// parsePrefix parses a prefix given as a query parameter or a path
// segment.
func parsePrefix(v string) (bgp.Prefix, error) {
	p, err := bgp.ParsePrefix(v)
	if err != nil {
		return p, fmt.Errorf("bad prefix %q: %v", v, err)
	}
	return p, nil
}

// parseASN parses an AS number given as a query parameter or a path
// segment: a decimal uint32 other than 0, which no route originates.
func parseASN(v string) (bgp.ASN, error) {
	n, err := strconv.ParseUint(v, 10, 32)
	if err != nil || n == 0 {
		return 0, fmt.Errorf("bad as %q: want a positive AS number", v)
	}
	return bgp.ASN(n), nil
}

// serveConflicts is GET /scenarios/{id}/conflicts: the current conflict
// set, optionally only those involving ?as=ASN, cut to ?limit=N entries
// (count is the size before the cut).
func serveConflicts(w http.ResponseWriter, r *http.Request, s *Scenario) {
	conflicts, get := s.Engine().ActiveConflicts(), r.URL.Query()
	if v := get.Get("as"); v != "" {
		a, err := parseASN(v)
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		conflicts = slices.DeleteFunc(conflicts, func(c stream.ConflictInfo) bool {
			return !slices.Contains(c.Origins, a)
		})
	}
	total := len(conflicts)
	if v := get.Get("limit"); v != "" {
		limit, err := nonNegative("limit", v)
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		conflicts = conflicts[:min(limit, total)]
	}
	out := struct {
		Count     int            `json:"count"`
		Conflicts []conflictJSON `json:"conflicts"`
	}{Count: total, Conflicts: make([]conflictJSON, len(conflicts))}
	for i, c := range conflicts {
		out.Conflicts[i] = conflictJSON{
			Prefix:       c.Prefix,
			Origins:      c.Origins,
			Class:        c.Class.String(),
			SinceDay:     c.SinceDay,
			FirstDay:     c.FirstDay,
			LastDay:      c.LastDay,
			DaysObserved: c.DaysObserved,
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// servePrefix is GET /scenarios/{id}/prefix/{cidr...}.
func servePrefix(w http.ResponseWriter, r *http.Request, s *Scenario) {
	p, err := parsePrefix(r.PathValue("cidr"))
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	info := s.Engine().Prefix(p)
	out := prefixJSON{
		Prefix:  info.Prefix,
		Active:  info.Active,
		Origins: info.Origins,
		Class:   info.Class.String(),
		Routes:  info.Routes,
	}
	if c := info.Conflict; c != nil {
		out.FirstDay, out.LastDay = c.FirstDay, c.LastDay
		out.DaysObserved = c.DaysObserved
		out.OriginsEver = c.OriginsEver
	}
	writeJSON(w, http.StatusOK, out)
}

// serveAS is GET /scenarios/{id}/as/{asn}: the engine's involvement
// record is the document.
func serveAS(w http.ResponseWriter, r *http.Request, s *Scenario) {
	a, err := parseASN(r.PathValue("asn"))
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, s.Engine().Involvement(a))
}

// serveStats is GET /scenarios/{id}/stats.
func serveStats(w http.ResponseWriter, r *http.Request, s *Scenario) {
	status := s.Status()
	out := statsJSON{
		Stats:   s.Engine().Stats(),
		ByClass: make(map[string]int),
		State:   status.State,
		Health:  status.Health,
	}
	for cl, n := range out.Stats.ByClass {
		if n > 0 {
			out.ByClass[core.Class(cl).String()] = n
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// serveScenarioHealth is GET /scenarios/{id}/healthz: liveness plus replay
// progress, read from the engine's own counters — a probe takes no shard
// lock and costs the same however much state the engine holds.
func serveScenarioHealth(w http.ResponseWriter, r *http.Request, s *Scenario) {
	e := s.Engine()
	writeJSON(w, http.StatusOK, struct {
		Status        string         `json:"status"`
		LastClosedDay int            `json:"last_closed_day"`
		Replaying     bool           `json:"replaying"`
		Source        *source.Status `json:"source,omitempty"`
	}{"ok", e.LastClosedDay(), !e.Closed(), e.SourceStatus()})
}
