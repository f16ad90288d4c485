package serve

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"

	"moas/internal/bgp"
	"moas/internal/core"
	"moas/internal/stream"
)

// TestAPIDuringReplay parks a replay halfway through the archive and
// exercises every query endpoint against the settled mid-replay state,
// then resumes and checks the final state — moasd's serving path end to
// end, through the router. The reference is the per-day detector over the
// scenario's own table snapshot, which shares nothing with the engine.
func TestAPIDuringReplay(t *testing.T) {
	sc := smallScenario(t)
	reg := NewRegistry()
	defer reg.Close()
	s, err := reg.Create(ScenarioConfig{ID: "mid", Source: SourceSynth, Scale: "small", Shards: 2, DaysPerSec: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()
	client, base := srv.Client(), srv.URL+"/scenarios/mid"

	half := len(sc.ObservedDays) / 2
	pauseDay := sc.ObservedDays[half]
	parkAt(t, s, half+1)

	// The live conflict set must equal the day's batch-scan observation:
	// after closing day pauseDay the engine state is exactly snapshot(pauseDay).
	obs := core.NewDetector().ObserveView(pauseDay, sc.TableViewAt(pauseDay))

	type conflictDoc struct {
		Prefix  string   `json:"prefix"`
		Origins []uint32 `json:"origins"`
		Class   string   `json:"class"`
	}
	var conflicts struct {
		Count     int           `json:"count"`
		Conflicts []conflictDoc `json:"conflicts"`
	}
	getJSON(t, client, base+"/conflicts", &conflicts)
	if conflicts.Count != obs.Count() {
		t.Fatalf("/conflicts count = %d mid-replay, batch scan of day %d sees %d",
			conflicts.Count, pauseDay, obs.Count())
	}
	if len(conflicts.Conflicts) == 0 {
		t.Fatal("no conflicts serialized")
	}
	for i, c := range obs.Conflicts {
		want := conflictDoc{Prefix: c.Prefix.String(), Class: c.Class.String()}
		for _, o := range c.Origins {
			want.Origins = append(want.Origins, uint32(o))
		}
		if got := conflicts.Conflicts[i]; !reflect.DeepEqual(got, want) {
			t.Fatalf("/conflicts[%d] = %+v, batch scan of day %d sees %+v", i, got, pauseDay, want)
		}
	}
	first := conflicts.Conflicts[0]
	if len(first.Origins) < 2 || first.Prefix == "" {
		t.Fatalf("malformed conflict entry: %+v", first)
	}

	// Per-prefix endpoint for a live conflict.
	var pfx struct {
		Prefix string `json:"prefix"`
		Active bool   `json:"active"`
		Routes int    `json:"routes"`
	}
	getJSON(t, client, base+"/prefix/"+first.Prefix, &pfx)
	if !pfx.Active || pfx.Prefix != first.Prefix || pfx.Routes == 0 {
		t.Fatalf("/prefix/%s = %+v, want active with routes", first.Prefix, pfx)
	}

	// Per-AS endpoint for one of its origins.
	var inv struct {
		ASN    uint32 `json:"asn"`
		Active int    `json:"active"`
	}
	getJSON(t, client, fmt.Sprintf("%s/as/%d", base, first.Origins[0]), &inv)
	if inv.Active == 0 {
		t.Fatalf("/as/%d reports no active conflicts, but %s is live", first.Origins[0], first.Prefix)
	}

	// Stats and health mid-replay.
	var stats struct {
		LastClosedDay   int    `json:"last_closed_day"`
		ActiveConflicts int    `json:"active_conflicts"`
		Replaying       bool   `json:"replaying"`
		State           string `json:"state"`
	}
	getJSON(t, client, base+"/stats", &stats)
	if stats.LastClosedDay != pauseDay || stats.ActiveConflicts != obs.Count() || !stats.Replaying || stats.State != "paused" {
		t.Fatalf("/stats mid-replay = %+v, want day %d with %d active, replaying, paused",
			stats, pauseDay, obs.Count())
	}
	var health struct {
		Status        string `json:"status"`
		LastClosedDay int    `json:"last_closed_day"`
		Replaying     bool   `json:"replaying"`
	}
	getJSON(t, client, base+"/healthz", &health)
	if health.Status != "ok" || !health.Replaying || health.LastClosedDay != pauseDay {
		t.Fatalf("/healthz = %+v", health)
	}

	// Bad inputs are 400s, not panics.
	if resp := getJSON(t, client, base+"/prefix/not-a-cidr", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad prefix: status %d", resp.StatusCode)
	}
	if resp := getJSON(t, client, base+"/as/xyz", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad asn: status %d", resp.StatusCode)
	}

	// Resume, finish, and confirm the API now serves the final day. The
	// replay is paced to a crawl, so it is stepped to its last day close
	// and released from there.
	parkAt(t, s, len(sc.ObservedDays))
	if err := s.Resume(); err != nil {
		t.Fatal(err)
	}
	waitState(t, client, base, "done")
	finalObs := core.NewDetector().ObserveView(sc.FinalObservedDay(), sc.TableViewAt(sc.FinalObservedDay()))
	getJSON(t, client, base+"/stats", &stats)
	if stats.Replaying {
		t.Fatal("/stats still reports replaying after Close")
	}
	if stats.ActiveConflicts != finalObs.Count() {
		t.Fatalf("final active conflicts = %d, batch scan sees %d", stats.ActiveConflicts, finalObs.Count())
	}

	// limit and as filters.
	getJSON(t, client, base+"/conflicts?limit=1", &conflicts)
	if len(conflicts.Conflicts) != 1 || conflicts.Count != finalObs.Count() {
		t.Fatalf("limit=1: %d entries, count %d (want 1 entry, count %d)",
			len(conflicts.Conflicts), conflicts.Count, finalObs.Count())
	}
}

// TestConflictsLimitValidation: a malformed or negative ?limit= on
// /conflicts is a 400 carrying the message /episodes gives for the same
// mistake — it used to be ignored, returning the whole set — while the
// valid forms still answer 200.
func TestConflictsLimitValidation(t *testing.T) {
	reg := NewRegistry()
	reg.EpisodeDir = t.TempDir()
	defer reg.Close()
	if _, err := reg.Create(ScenarioConfig{ID: "idle", Source: SourceSynth, Scale: "small"}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()

	for _, bad := range []string{"x", "-1", "1.5", "1e3"} {
		want := fmt.Sprintf("{\"error\":\"bad limit \\\"%s\\\": want a non-negative integer\"}\n", bad)
		for _, endpoint := range []string{"/conflicts", "/episodes"} {
			resp, err := srv.Client().Get(srv.URL + "/scenarios/idle" + endpoint + "?limit=" + bad)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || string(body) != want {
				t.Fatalf("%s?limit=%s: %d %q, want 400 %q", endpoint, bad, resp.StatusCode, body, want)
			}
		}
	}
	for _, ok := range []string{"", "?limit=0", "?limit=1", "?limit=100"} {
		if resp := getJSON(t, srv.Client(), srv.URL+"/scenarios/idle/conflicts"+ok, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("/conflicts%s: status %d", ok, resp.StatusCode)
		}
	}
}

// TestHealthzCostIndependentOfState: a liveness probe reads the engine's
// own counters — it takes no shard lock and builds no Stats — so what it
// allocates does not depend on how many activations have ended. The
// engine is storm-shaped: a block of prefixes that a second origin joins
// and leaves, every activation a span of its own.
func TestHealthzCostIndependentOfState(t *testing.T) {
	probe := func(days int) (allocs, bytes float64) {
		e := stream.New(stream.Config{Shards: 2})
		defer e.Close()
		prefixes := make([]bgp.Prefix, 64)
		for i := range prefixes {
			prefixes[i] = bgp.PrefixFromUint32(10<<24|uint32(i)<<8, 24)
		}
		home, storm := stream.PeerKey{IP: [16]byte{15: 1}, AS: 701}, stream.PeerKey{IP: [16]byte{15: 2}, AS: 3356}
		e.ApplyUpdate(0, home, &bgp.Update{NLRI: prefixes, Attrs: &bgp.Attrs{ASPath: bgp.Seq(701, 9)}})
		for day := 0; day < days; day++ {
			// A start every day, the end a varying number of days later.
			if day%3 != 2 {
				e.ApplyUpdate(day, storm, &bgp.Update{NLRI: prefixes[:1+day%64], Attrs: &bgp.Attrs{ASPath: bgp.Seq(3356, 8584)}})
			} else {
				e.ApplyUpdate(day, storm, &bgp.Update{Withdrawn: prefixes})
			}
			e.CloseDay(day)
		}
		e.Sync()
		if st := e.Stats(); st.Lifecycle.Spans < days/3 {
			t.Fatalf("%d days left %d activation spans: not a storm", days, st.Lifecycle.Spans)
		}
		s := &Scenario{eng: e}
		// testing.AllocsPerRun's method, also averaging the bytes: a span
		// list copied per probe would be one allocation at any size, so
		// the bytes tell. A single sample flakes under -race, whose
		// instrumentation allocates now and then on its own.
		const runs = 20
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		serveScenarioHealth(httptest.NewRecorder(), nil, s) // warm-up
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			serveScenarioHealth(httptest.NewRecorder(), nil, s)
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	fewAllocs, fewBytes := probe(6)
	manyAllocs, manyBytes := probe(600)
	// The regression this guards against took a probe from 1 616 to
	// 320 816 B; the slack absorbs the race detector's noise.
	if manyAllocs > fewAllocs+1 || manyBytes > fewBytes+512 {
		t.Fatalf("healthz costs %.1f allocations, %.0f bytes over 6 days of storm; %.1f, %.0f over 600",
			fewAllocs, fewBytes, manyAllocs, manyBytes)
	}
}
