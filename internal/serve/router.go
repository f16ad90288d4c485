package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"

	"moas/internal/bgp"
	"moas/internal/core"
	"moas/internal/epilog"
	"moas/internal/stream"
)

// DefaultEpisodeLimit caps /episodes responses when no ?limit= is given:
// a month-scale scenario can hold millions of episodes, and an unbounded
// default would make the endpoint an accidental full-log dump.
const DefaultEpisodeLimit = 1000

type episodeJSON struct {
	Prefix  string    `json:"prefix"`
	Origins []bgp.ASN `json:"origins"`
	Class   string    `json:"class"`
	Seq     uint64    `json:"seq"`
	Start   int       `json:"start_day"`
	End     int       `json:"end_day"`
	Days    int       `json:"days"`
	Open    bool      `json:"open,omitempty"`
}

func episodeToJSON(ep *epilog.Episode) episodeJSON {
	return episodeJSON{
		Prefix:  ep.Prefix.String(),
		Origins: ep.Origins,
		Class:   ep.Class.String(),
		Seq:     ep.Seq,
		Start:   ep.Start,
		End:     ep.End,
		Days:    ep.Duration(),
		Open:    ep.Open,
	}
}

// episodeQuery parses the /episodes filter parameters. Class accepts the
// paper's legend names (case-insensitive) or a numeric core.Class. An
// absent limit is DefaultEpisodeLimit, so Limit 0 is an explicit limit=0.
func episodeQuery(r *http.Request) (epilog.Query, error) {
	q := epilog.Query{Class: -1, Limit: DefaultEpisodeLimit}
	get := r.URL.Query()
	// In a fixed order, so that a request with several bad values is
	// always refused for the same one.
	for _, p := range []struct {
		name string
		dst  *int
	}{{"from", &q.From}, {"to", &q.To}, {"min_days", &q.MinDays}, {"limit", &q.Limit}} {
		if v := get.Get(p.name); v != "" {
			n, err := nonNegative(p.name, v)
			if err != nil {
				return q, err
			}
			*p.dst = n
		}
	}
	// The log reads To 0 as no upper bound, which only an absent to means.
	if v := get.Get("to"); v != "" && q.To == 0 {
		return q, fmt.Errorf("bad to %q: want a day after 0 (omit to for no upper bound)", v)
	}
	if v := get.Get("prefix"); v != "" {
		p, err := parsePrefix(v)
		if err != nil {
			return q, err
		}
		q.Prefix = &p
	}
	if v := get.Get("as"); v != "" {
		a, err := parseASN(v)
		if err != nil {
			return q, err
		}
		q.Origin = a
	}
	if v := get.Get("class"); v != "" {
		found := false
		for c := 0; c < core.NumClasses; c++ {
			if strings.EqualFold(core.Class(c).String(), v) {
				q.Class, found = c, true
				break
			}
		}
		if !found {
			if n, err := strconv.Atoi(v); err == nil && n >= 0 && n < core.NumClasses {
				q.Class, found = n, true
			}
		}
		if !found {
			return q, fmt.Errorf("bad class %q: want a class name or 0-%d", v, core.NumClasses-1)
		}
	}
	return q, nil
}

// NewHandler routes moasd's multi-scenario API over a registry:
//
//	GET    /healthz                      process liveness + scenario count
//	GET    /scenarios                    list scenarios
//	POST   /scenarios                    create (ScenarioConfig JSON body)
//	GET    /scenarios/{id}               lifecycle status
//	POST   /scenarios/{id}/start         begin the replay
//	POST   /scenarios/{id}/pause         park the replay (settled view)
//	POST   /scenarios/{id}/resume        release a paused replay
//	POST   /scenarios/{id}/checkpoint    serialize a paused/done scenario
//	GET    /scenarios/{id}/checkpoint    newest on-disk auto-checkpoint
//	                                     bytes (404 with durability off)
//	DELETE /scenarios/{id}               abort and remove
//	GET    /scenarios/{id}/events        SSE conflict lifecycle stream
//	                                     (Last-Event-ID resume)
//	GET    /scenarios/{id}/episodes      historical episode query over the
//	                                     append-only episode log (404 when
//	                                     the registry has no EpisodeDir);
//	                                     ?from= ?to= ?prefix= ?as= ?class=
//	                                     ?min_days= ?limit=
//	GET    /scenarios/{id}/episodes/summary
//	                                     duration/persistence histogram
//	                                     over the same filters
//	GET    /scenarios/{id}/conflicts     current conflict set (?limit=N,
//	                                     ?as=ASN)
//	GET    /scenarios/{id}/prefix/{cidr} one prefix's state, lifecycle and
//	                                     lifetime record
//	GET    /scenarios/{id}/as/{asn}      an AS's conflict involvement
//	GET    /scenarios/{id}/stats         engine counters, duration stats,
//	                                     lifecycle state and health
//	GET    /scenarios/{id}/healthz       liveness plus replay progress
//
// This is the one wire layer: every scenario has its own isolated engine
// (internal/stream, a library that knows nothing of HTTP), and the query
// endpoints (query.go) render that engine's typed results.
func NewHandler(reg *Registry) http.Handler {
	mux := http.NewServeMux()

	// Liveness plus degradation: always 200 (the process answering IS the
	// liveness signal), with status "degraded" and per-scenario subsystem
	// health whenever any hosted scenario is impaired or failed. Every
	// degraded flag here clears on its own once the underlying fault
	// heals — the chaos harness asserts exactly that.
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		list := reg.List()
		status := "ok"
		var degraded, failed []string
		health := make(map[string]Health, len(list))
		for _, s := range list {
			h := s.Health()
			health[s.ID()] = h
			if h.OK {
				continue
			}
			status = "degraded"
			if !h.Supervisor.OK {
				failed = append(failed, s.ID())
			} else {
				degraded = append(degraded, s.ID())
			}
		}
		writeJSON(w, http.StatusOK, struct {
			Status    string            `json:"status"`
			Scenarios int               `json:"scenarios"`
			Degraded  []string          `json:"degraded,omitempty"`
			Failed    []string          `json:"failed,omitempty"`
			Health    map[string]Health `json:"health,omitempty"`
		}{status, len(list), degraded, failed, health})
	})

	mux.HandleFunc("GET /scenarios", func(w http.ResponseWriter, r *http.Request) {
		list := reg.List()
		out := struct {
			Count     int      `json:"count"`
			Scenarios []Status `json:"scenarios"`
		}{Count: len(list), Scenarios: make([]Status, len(list))}
		for i, s := range list {
			out.Scenarios[i] = s.Status()
		}
		writeJSON(w, http.StatusOK, out)
	})

	mux.HandleFunc("POST /scenarios", func(w http.ResponseWriter, r *http.Request) {
		var cfg ScenarioConfig
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxCreateBytes))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&cfg); err != nil {
			code := http.StatusBadRequest
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				code = http.StatusRequestEntityTooLarge
			}
			httpError(w, code, "bad scenario config: "+err.Error())
			return
		}
		s, err := reg.Create(cfg)
		if err != nil {
			if errors.Is(err, ErrTooManyScenarios) {
				// The limit frees up when a scenario is deleted; tell
				// well-behaved clients not to hammer.
				w.Header().Set("Retry-After", "1")
				httpErrorSub(w, http.StatusTooManyRequests, "limits", err.Error())
				return
			}
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		if cfg.Start {
			if err := s.Start(); err != nil {
				httpError(w, http.StatusConflict, err.Error())
				return
			}
		}
		writeJSON(w, http.StatusCreated, s.Status())
	})

	// scenario makes a handler of a function of the {id} scenario,
	// answering 404 for an unknown id.
	type scenarioHandler func(w http.ResponseWriter, r *http.Request, s *Scenario)
	scenario := func(h scenarioHandler) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if s := reg.Get(r.PathValue("id")); s != nil {
				h(w, r, s)
			} else {
				httpError(w, http.StatusNotFound, "no such scenario")
			}
		}
	}

	mux.HandleFunc("GET /scenarios/{id}", scenario(func(w http.ResponseWriter, r *http.Request, s *Scenario) {
		writeJSON(w, http.StatusOK, s.Status())
	}))

	transition := func(do func(*Scenario) error) http.HandlerFunc {
		return scenario(func(w http.ResponseWriter, r *http.Request, s *Scenario) {
			if err := do(s); err != nil {
				httpError(w, http.StatusConflict, err.Error())
				return
			}
			writeJSON(w, http.StatusOK, s.Status())
		})
	}
	mux.HandleFunc("POST /scenarios/{id}/start", transition((*Scenario).Start))
	mux.HandleFunc("POST /scenarios/{id}/pause", transition((*Scenario).Pause))
	mux.HandleFunc("POST /scenarios/{id}/resume", transition((*Scenario).Resume))

	mux.HandleFunc("POST /scenarios/{id}/checkpoint", scenario(func(w http.ResponseWriter, r *http.Request, s *Scenario) {
		ck, err := s.Checkpoint()
		if err != nil {
			httpError(w, http.StatusConflict, err.Error())
			return
		}
		blob, err := AppendScenarioCheckpointBinary(nil, ck)
		if err != nil {
			httpError(w, http.StatusInternalServerError, "encode checkpoint: "+err.Error())
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.Itoa(len(blob)))
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(blob)
	}))

	// The read half of durability: download the newest auto-checkpoint
	// exactly as it sits on disk, the same file POST returns. The bytes
	// feed off-host backup — saved elsewhere, they boot a standby daemon
	// by landing in its checkpoint directory, or restore through a
	// create.
	mux.HandleFunc("GET /scenarios/{id}/checkpoint", scenario(func(w http.ResponseWriter, r *http.Request, s *Scenario) {
		path, ok := reg.LatestCheckpoint(s.ID())
		if !ok {
			httpError(w, http.StatusNotFound, "no on-disk checkpoint (durability off or none written yet)")
			return
		}
		fsys := reg.Durability.fs()
		f, err := fsys.Open(path)
		if errors.Is(err, os.ErrNotExist) {
			httpError(w, http.StatusNotFound, "checkpoint file vanished: "+err.Error())
			return
		}
		if err != nil {
			httpError(w, http.StatusInternalServerError, "read checkpoint: "+err.Error())
			return
		}
		defer f.Close()
		w.Header().Set("Content-Type", "application/octet-stream")
		if fi, err := fsys.Stat(path); err == nil {
			w.Header().Set("Content-Length", strconv.FormatInt(fi.Size(), 10))
		}
		w.WriteHeader(http.StatusOK)
		_, _ = io.Copy(w, f)
	}))

	mux.HandleFunc("DELETE /scenarios/{id}", func(w http.ResponseWriter, r *http.Request) {
		if !reg.Delete(r.PathValue("id")) {
			httpError(w, http.StatusNotFound, "no such scenario")
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"deleted": r.PathValue("id")})
	})

	mux.HandleFunc("GET /scenarios/{id}/events", scenario(serveEvents))

	// The episode log's read side: historical conflict episodes straight
	// off the scenario's append-only log, filterable by time range,
	// prefix, origin AS, class and minimum duration. Open episodes render
	// with their end extended to the last closed day.
	episodes := func(h func(w http.ResponseWriter, lg *epilog.Log, q epilog.Query)) http.HandlerFunc {
		return scenario(func(w http.ResponseWriter, r *http.Request, s *Scenario) {
			lg := s.EpisodeLog()
			if lg == nil {
				httpError(w, http.StatusNotFound, "episode log disabled (start moasd with -episode-log-dir)")
				return
			}
			if eh := lg.Health(); eh.Degraded && eh.Lost > 0 {
				// Degraded-with-loss means the history has a hole the query
				// cannot see; surface it instead of serving a silently
				// incomplete answer. Degraded-without-loss keeps serving:
				// buffered episodes are folded into queries, so the answer is
				// still complete while the log retries its disk.
				w.Header().Set("Retry-After", "5")
				httpErrorSub(w, http.StatusInternalServerError, "episode_log",
					fmt.Sprintf("episode log degraded, %d episodes lost: %s", eh.Lost, eh.Error))
				return
			}
			q, err := episodeQuery(r)
			if err != nil {
				httpError(w, http.StatusBadRequest, err.Error())
				return
			}
			q.AsOf = s.Engine().LastClosedDay()
			h(w, lg, q)
		})
	}

	mux.HandleFunc("GET /scenarios/{id}/episodes", episodes(func(w http.ResponseWriter, lg *epilog.Log, q epilog.Query) {
		// The log reads Limit 0 as no cap; here it is limit=0, which asks
		// for none.
		var eps []epilog.Episode
		if q.Limit > 0 {
			var err error
			if eps, err = lg.Query(q); err != nil {
				httpError(w, http.StatusInternalServerError, err.Error())
				return
			}
		}
		out := struct {
			Count    int           `json:"count"`
			Episodes []episodeJSON `json:"episodes"`
		}{Count: len(eps), Episodes: make([]episodeJSON, len(eps))}
		for i := range eps {
			out.Episodes[i] = episodeToJSON(&eps[i])
		}
		writeJSON(w, http.StatusOK, out)
	}))

	mux.HandleFunc("GET /scenarios/{id}/episodes/summary", episodes(func(w http.ResponseWriter, lg *epilog.Log, q epilog.Query) {
		sum, err := lg.Summary(q)
		if err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, sum)
	}))

	mux.HandleFunc("GET /scenarios/{id}/conflicts", scenario(serveConflicts))
	mux.HandleFunc("GET /scenarios/{id}/prefix/{cidr...}", scenario(servePrefix))
	mux.HandleFunc("GET /scenarios/{id}/as/{asn}", scenario(serveAS))
	mux.HandleFunc("GET /scenarios/{id}/stats", scenario(serveStats))
	mux.HandleFunc("GET /scenarios/{id}/healthz", scenario(serveScenarioHealth))

	return mux
}

// eventTypeNames are the names ?types= may filter on: a name no event
// carries would silently filter out the whole stream.
var eventTypeNames = map[string]bool{
	stream.EventConflictStart.String(): true,
	stream.EventOriginChange.String():  true,
	stream.EventClassChange.String():   true,
	stream.EventConflictEnd.String():   true,
}

// serveEvents streams conflict lifecycle events as Server-Sent Events:
// one "event: <type>" block per lifecycle transition, with a JSON body
// and the scenario-wide monotonic event ID on the "id:" line. A
// reconnecting client sends that ID back as Last-Event-ID (the standard
// EventSource behavior) and the stream resumes from the scenario's ring
// buffer; if the client fell further behind than the ring remembers, an
// "event: gap" block reports how many events were lost so it can
// resynchronize through the query API. Live-source scenarios publish a
// second kind of gap into the same stream: a feed delivery gap
// (disconnect, BGP session drop), carried as an "event: gap" block with
// a "known" field saying whether the missed count is exact.
//
// The subscription is buffered (ScenarioConfig.EventBuffer); if the
// client falls that far behind the publisher, the hub drops it and the
// stream ends with "event: dropped" — reconnect with Last-Event-ID to
// catch up. An optional ?types=conflict-start,conflict-end filters by
// event type (filtering happens after buffering: a filtered subscriber
// still has to keep up with the full event rate); a name that is not an
// event type is a 400. When the scenario's subscriber limit is reached
// the request fails with 429.
func serveEvents(w http.ResponseWriter, r *http.Request, s *Scenario) {
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	var want map[string]bool
	if tp := r.URL.Query().Get("types"); tp != "" {
		want = make(map[string]bool)
		for _, t := range strings.Split(tp, ",") {
			t = strings.TrimSpace(t)
			if !eventTypeNames[t] {
				httpError(w, http.StatusBadRequest, fmt.Sprintf(
					"unknown event type %q in types (want conflict-start, origin-change, class-change or conflict-end)", t))
				return
			}
			want[t] = true
		}
	}
	var afterID uint64
	var resume bool
	if lei := r.Header.Get("Last-Event-ID"); lei != "" {
		v, err := strconv.ParseUint(lei, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad Last-Event-ID")
			return
		}
		afterID, resume = v, true
	}

	sub, err := s.Hub().Subscribe(s.cfg.EventBuffer, afterID, resume)
	if err != nil {
		w.Header().Set("Retry-After", "1")
		httpErrorSub(w, http.StatusTooManyRequests, "limits", err.Error())
		return
	}
	defer s.Hub().Unsubscribe(sub)

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	// The comment line tells the client its subscription is live before
	// any event fires (the integration test orders start-after-subscribe
	// on it).
	fmt.Fprintf(w, ": subscribed scenario=%s\n\n", s.ID())
	if sub.Missed > 0 {
		fmt.Fprintf(w, "event: gap\ndata: {\"missed\":%d}\n\n", sub.Missed)
	}
	fl.Flush()

	for {
		select {
		case <-r.Context().Done():
			return
		case ev, open := <-sub.C:
			if !open {
				// Dropped for falling behind, or the scenario was deleted.
				fmt.Fprint(w, "event: dropped\ndata: {\"reason\":\"slow consumer or scenario shutdown\"}\n\n")
				fl.Flush()
				return
			}
			if ev.Gap != nil {
				// Live-feed delivery gaps bypass the ?types filter: a
				// filtered consumer still needs to know its view has a
				// hole in it.
				fmt.Fprintf(w, "id: %d\nevent: gap\ndata: {\"scenario\":%q,\"missed\":%d,\"known\":%v}\n\n",
					ev.ID, s.ID(), ev.Gap.Missed, ev.Gap.Known)
				fl.Flush()
				continue
			}
			if want != nil && !want[ev.Event.Type.String()] {
				continue
			}
			data, err := json.Marshal(eventToJSON(s.ID(), ev.ID, &ev.Event))
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.ID, ev.Event.Type, data)
			fl.Flush()
		}
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// errorJSON is the one error envelope every endpoint returns: the
// message, plus the subsystem that produced it when the failure is a
// degradation rather than a caller mistake (so clients can distinguish
// "my request is wrong" from "the scenario's durability is impaired").
type errorJSON struct {
	Error     string `json:"error"`
	Subsystem string `json:"subsystem,omitempty"`
}

func httpError(w http.ResponseWriter, code int, msg string) {
	httpErrorSub(w, code, "", msg)
}

func httpErrorSub(w http.ResponseWriter, code int, subsystem, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(errorJSON{Error: msg, Subsystem: subsystem})
}
