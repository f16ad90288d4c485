package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"moas/internal/bgp"
	"moas/internal/core"
)

type episodesResp struct {
	Count    int `json:"count"`
	Episodes []struct {
		Prefix  string   `json:"prefix"`
		Origins []uint32 `json:"origins"`
		Class   string   `json:"class"`
		Seq     uint64   `json:"seq"`
		Start   int      `json:"start_day"`
		End     int      `json:"end_day"`
		Days    int      `json:"days"`
		Open    bool     `json:"open"`
	} `json:"episodes"`
}

type episodesSummary struct {
	Total      int    `json:"total"`
	Open       int    `json:"open"`
	Closed     int    `json:"closed"`
	Persistent int    `json:"persistent"`
	ByClass    []int  `json:"by_class"`
	Durations  [5]int `json:"durations"`
}

// TestEpisodeEndpoints: with an episode directory configured, a finished
// replay's full conflict history is queryable through /episodes — time
// range, prefix, origin-AS, class and duration filters all narrow it —
// /episodes/summary histograms the same selection, and DELETE takes the
// on-disk log with it. Without an episode directory the endpoints 404.
func TestEpisodeEndpoints(t *testing.T) {
	epiDir := t.TempDir()
	reg := NewRegistry()
	reg.EpisodeDir = epiDir
	defer reg.Close()
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()
	client := srv.Client()

	resp, body := postJSON(t, client, srv.URL+"/scenarios",
		map[string]any{"id": "hist", "source": "synth", "scale": "small", "shards": 2, "start": true})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %v", resp.StatusCode, body)
	}
	waitState(t, client, srv.URL+"/scenarios/hist", "done")

	var all episodesResp
	if r := getJSON(t, client, srv.URL+"/scenarios/hist/episodes?limit=100000", &all); r.StatusCode != http.StatusOK {
		t.Fatalf("GET episodes: %d", r.StatusCode)
	}
	if all.Count == 0 {
		t.Fatal("no episodes recorded for the small synth scenario")
	}
	for _, ep := range all.Episodes {
		if len(ep.Origins) < 2 || ep.Days != ep.End-ep.Start+1 || ep.Days < 1 || ep.Seq == 0 {
			t.Fatalf("malformed episode: %+v", ep)
		}
	}

	// Filters narrow the same log: a time-range query must return the
	// episodes overlapping it and nothing else, and a prefix filter only
	// that prefix.
	var ranged episodesResp
	getJSON(t, client, srv.URL+"/scenarios/hist/episodes?from=10&to=20&limit=100000", &ranged)
	if ranged.Count == 0 || ranged.Count > all.Count {
		t.Fatalf("ranged query returned %d of %d episodes", ranged.Count, all.Count)
	}
	for _, ep := range ranged.Episodes {
		if ep.End < 10 || ep.Start > 20 {
			t.Fatalf("episode [%d,%d] outside requested range [10,20]", ep.Start, ep.End)
		}
	}
	pfx := all.Episodes[0].Prefix
	var byPfx episodesResp
	getJSON(t, client, srv.URL+"/scenarios/hist/episodes?prefix="+pfx+"&limit=100000", &byPfx)
	if byPfx.Count == 0 {
		t.Fatalf("prefix filter %s matched nothing", pfx)
	}
	for _, ep := range byPfx.Episodes {
		if ep.Prefix != pfx {
			t.Fatalf("prefix filter %s returned %s", pfx, ep.Prefix)
		}
	}

	var sum episodesSummary
	if r := getJSON(t, client, srv.URL+"/scenarios/hist/episodes/summary", &sum); r.StatusCode != http.StatusOK {
		t.Fatalf("GET summary: %d", r.StatusCode)
	}
	if sum.Total != all.Count || sum.Open+sum.Closed != sum.Total {
		t.Fatalf("summary %+v does not account for the %d episodes", sum, all.Count)
	}
	var bucketed int
	for _, n := range sum.Durations {
		bucketed += n
	}
	if bucketed != sum.Total {
		t.Fatalf("duration buckets %v sum to %d, want %d", sum.Durations, bucketed, sum.Total)
	}

	// Bad filter values are rejected, not silently ignored.
	if r := getJSON(t, client, srv.URL+"/scenarios/hist/episodes?from=yesterday", nil); r.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad from value: %d, want 400", r.StatusCode)
	}
	if r := getJSON(t, client, srv.URL+"/scenarios/hist/episodes?class=bogus", nil); r.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad class value: %d, want 400", r.StatusCode)
	}
	errorOf := func(path string) string {
		t.Helper()
		var body struct {
			Error string `json:"error"`
		}
		resp, err := client.Get(srv.URL + "/scenarios/hist" + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: %d (%v), want a 400 error document", path, resp.StatusCode, err)
		}
		return body.Error
	}
	// Several bad values are refused for the first in a fixed order.
	for _, endpoint := range []string{"/episodes", "/episodes/summary"} {
		for i := 0; i < 20; i++ {
			if got := errorOf(endpoint + "?from=a&limit=b&min_days=c"); !strings.HasPrefix(got, `bad from "a"`) {
				t.Fatalf("%s with three bad values, call %d: %q, want the bad from", endpoint, i, got)
			}
		}
	}
	// A bad prefix reads the same in a query parameter and in a path.
	if q, p := errorOf("/episodes?prefix=not-a-cidr"), errorOf("/prefix/not-a-cidr"); q != p || !strings.HasPrefix(q, `bad prefix "not-a-cidr": `) {
		t.Fatalf("bad prefix: /episodes says %q, /prefix says %q", q, p)
	}

	// DELETE removes the scenario's episode directory with it.
	delReq, _ := http.NewRequest("DELETE", srv.URL+"/scenarios/hist", nil)
	delResp, err := client.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	if _, err := os.Stat(filepath.Join(epiDir, "hist")); !os.IsNotExist(err) {
		t.Fatalf("episode dir survived delete: %v", err)
	}

	// Without an EpisodeDir the endpoints answer 404, not empty results.
	plain := NewRegistry()
	defer plain.Close()
	srv2 := httptest.NewServer(NewHandler(plain))
	defer srv2.Close()
	if _, err := plain.Create(ScenarioConfig{ID: "nolog"}); err != nil {
		t.Fatal(err)
	}
	if r := getJSON(t, srv2.Client(), srv2.URL+"/scenarios/nolog/episodes", nil); r.StatusCode != http.StatusNotFound {
		t.Fatalf("episodes without EpisodeDir: %d, want 404", r.StatusCode)
	}
}

// idleEpisodeServer serves a created, never-started scenario "idle" whose
// episode log holds one closed episode.
func idleEpisodeServer(t *testing.T) *httptest.Server {
	t.Helper()
	reg := NewRegistry()
	reg.EpisodeDir = t.TempDir()
	t.Cleanup(reg.Close)
	s, err := reg.Create(ScenarioConfig{ID: "idle", Source: SourceSynth, Scale: "small"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.EpisodeLog().Append(core.Episode{
		Prefix: bgp.MustParsePrefix("192.0.2.0/24"), Origins: []bgp.ASN{64500, 64501},
		Class: core.ClassDistinctPaths, Seq: 2, Start: 3, End: 5,
	}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(reg))
	t.Cleanup(srv.Close)
	return srv
}

// TestEpisodesToZero: a present to=0 is refused on both episode endpoints
// with a 400 that says why. The log reads a zero upper bound as none,
// which only an absent to means, so serving it would answer a question
// nobody asked.
func TestEpisodesToZero(t *testing.T) {
	srv := idleEpisodeServer(t)
	want := "{\"error\":\"bad to \\\"0\\\": want a day after 0 (omit to for no upper bound)\"}\n"
	for _, endpoint := range []string{"/episodes", "/episodes/summary"} {
		resp, err := srv.Client().Get(srv.URL + "/scenarios/idle" + endpoint + "?to=0")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || string(body) != want {
			t.Fatalf("%s?to=0: %d %q, want 400 %q", endpoint, resp.StatusCode, body, want)
		}
	}
}

// TestEpisodesLimitZero: a present limit=0 returns no episodes, as
// /conflicts?limit=0 does; only an absent limit means the default cap.
func TestEpisodesLimitZero(t *testing.T) {
	srv := idleEpisodeServer(t)
	for query, want := range map[string]int{"": 1, "?limit=0": 0, "?limit=1": 1} {
		var got episodesResp
		if r := getJSON(t, srv.Client(), srv.URL+"/scenarios/idle/episodes"+query, &got); r.StatusCode != http.StatusOK {
			t.Fatalf("/episodes%s: status %d", query, r.StatusCode)
		}
		if got.Count != want || len(got.Episodes) != want {
			t.Fatalf("/episodes%s: count %d, %d episodes, want %d", query, got.Count, len(got.Episodes), want)
		}
	}
}
