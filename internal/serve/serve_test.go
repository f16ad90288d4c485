package serve

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"moas/internal/collector"
	"moas/internal/scenario"
)

// The small scenario is built once per test binary; tests that need an
// on-disk MRT archive write it into their own temp dir.
var (
	scOnce  sync.Once
	scSmall *scenario.Scenario
	scErr   error
)

func smallScenario(t *testing.T) *scenario.Scenario {
	t.Helper()
	scOnce.Do(func() { scSmall, scErr = scenario.Build(scenario.TestSpec()) })
	if scErr != nil {
		t.Fatal(scErr)
	}
	return scSmall
}

func writeArchiveFile(t *testing.T) string {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if err := collector.WriteUpdateArchive(zw, smallScenario(t)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "updates.mrt.gz")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func postJSON(t *testing.T, client *http.Client, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := map[string]any{}
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp, out
}

func getJSON(t *testing.T, client *http.Client, url string, out any) *http.Response {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s: decode: %v", url, err)
		}
	}
	return resp
}

// waitState polls a scenario's status endpoint until it reaches want.
func waitState(t *testing.T, client *http.Client, url, want string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		getJSON(t, client, url, &st)
		if st.State == want {
			return
		}
		if st.State == "failed" {
			t.Fatalf("%s failed: %s", url, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s stuck in state %s, want %s", url, st.State, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMultiScenarioServer is the PR's acceptance test: one process serves
// two concurrent scenario replays with isolated state — one synthesized,
// one loaded from an MRT BGP4MP file on disk — and an SSE client observes
// a conflict-start event without polling.
func TestMultiScenarioServer(t *testing.T) {
	mrtPath := writeArchiveFile(t)
	reg := NewRegistry()
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()
	client := srv.Client()

	// Create both scenarios; neither starts yet.
	resp, body := postJSON(t, client, srv.URL+"/scenarios",
		map[string]any{"id": "synth", "source": "synth", "scale": "small", "shards": 2})
	if resp.StatusCode != http.StatusCreated || body["state"] != "created" {
		t.Fatalf("create synth: %d %v", resp.StatusCode, body)
	}
	resp, body = postJSON(t, client, srv.URL+"/scenarios",
		map[string]any{"id": "file", "source": "mrt", "path": mrtPath, "shards": 2, "event_buffer": 1 << 16})
	if resp.StatusCode != http.StatusCreated || body["state"] != "created" {
		t.Fatalf("create file: %d %v", resp.StatusCode, body)
	}

	var list struct {
		Count     int `json:"count"`
		Scenarios []struct {
			ID    string `json:"id"`
			State string `json:"state"`
		} `json:"scenarios"`
	}
	getJSON(t, client, srv.URL+"/scenarios", &list)
	if list.Count != 2 || list.Scenarios[0].ID != "file" || list.Scenarios[1].ID != "synth" {
		t.Fatalf("/scenarios = %+v", list)
	}

	// Subscribe to the file scenario's event stream BEFORE starting it —
	// the conflict-start observation below is push, not poll.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", srv.URL+"/scenarios/file/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	sse, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer sse.Body.Close()
	if ct := sse.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q", ct)
	}
	br := bufio.NewReader(sse.Body)
	line, err := br.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, ": subscribed") {
		t.Fatalf("SSE handshake line %q, err %v", line, err)
	}

	// Start the file replay; the synth scenario stays untouched — its
	// engine must still be empty (state isolation).
	resp, _ = postJSON(t, client, srv.URL+"/scenarios/file/start", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("start file: %d", resp.StatusCode)
	}
	var stats struct {
		Messages        uint64 `json:"messages"`
		TotalConflicts  int    `json:"total_conflicts"`
		ActiveConflicts int    `json:"active_conflicts"`
	}
	getJSON(t, client, srv.URL+"/scenarios/synth/stats", &stats)
	if stats.Messages != 0 || stats.TotalConflicts != 0 {
		t.Fatalf("synth engine not isolated: %+v while file replays", stats)
	}

	// The SSE stream must push a conflict-start without any polling.
	var ev struct {
		Scenario string   `json:"scenario"`
		Type     string   `json:"type"`
		Prefix   string   `json:"prefix"`
		Origins  []uint32 `json:"origins"`
	}
	for {
		line, err = br.ReadString('\n')
		if err != nil {
			t.Fatalf("SSE stream ended before conflict-start: %v", err)
		}
		if !strings.HasPrefix(line, "event: conflict-start") {
			continue
		}
		data, err := br.ReadString('\n')
		if err != nil || !strings.HasPrefix(data, "data: ") {
			t.Fatalf("conflict-start data line %q, err %v", data, err)
		}
		if err := json.Unmarshal([]byte(strings.TrimPrefix(data, "data: ")), &ev); err != nil {
			t.Fatal(err)
		}
		break
	}
	if ev.Scenario != "file" || ev.Type != "conflict-start" || ev.Prefix == "" || len(ev.Origins) < 2 {
		t.Fatalf("malformed conflict-start event: %+v", ev)
	}

	// Start the synth scenario; both replays now run concurrently in one
	// process. Both derive from the same deterministic spec, so the
	// isolated engines must converge on the same conflict population.
	resp, _ = postJSON(t, client, srv.URL+"/scenarios/synth/start", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("start synth: %d", resp.StatusCode)
	}
	waitState(t, client, srv.URL+"/scenarios/file", "done")
	waitState(t, client, srv.URL+"/scenarios/synth", "done")

	var fileStats, synthStats struct {
		TotalConflicts  int `json:"total_conflicts"`
		ActiveConflicts int `json:"active_conflicts"`
	}
	getJSON(t, client, srv.URL+"/scenarios/file/stats", &fileStats)
	getJSON(t, client, srv.URL+"/scenarios/synth/stats", &synthStats)
	if fileStats.TotalConflicts == 0 || fileStats.TotalConflicts != synthStats.TotalConflicts ||
		fileStats.ActiveConflicts != synthStats.ActiveConflicts {
		t.Fatalf("file replay %+v diverges from synth replay %+v", fileStats, synthStats)
	}

	// The full stream query surface works under scenario routing.
	var conflicts struct {
		Count     int `json:"count"`
		Conflicts []struct {
			Prefix  string   `json:"prefix"`
			Origins []uint32 `json:"origins"`
		} `json:"conflicts"`
	}
	getJSON(t, client, srv.URL+"/scenarios/synth/conflicts", &conflicts)
	if conflicts.Count == 0 || len(conflicts.Conflicts) == 0 {
		t.Fatal("no conflicts served for synth scenario")
	}
	var pfx struct {
		Active bool `json:"active"`
	}
	getJSON(t, client, srv.URL+"/scenarios/synth/prefix/"+conflicts.Conflicts[0].Prefix, &pfx)
	if !pfx.Active {
		t.Fatalf("prefix %s not active under scenario routing", conflicts.Conflicts[0].Prefix)
	}
	var inv struct {
		Active int `json:"active"`
	}
	getJSON(t, client, srv.URL+"/scenarios/synth/as/"+fmt.Sprint(conflicts.Conflicts[0].Origins[0]), &inv)
	if inv.Active == 0 {
		t.Fatal("involvement empty under scenario routing")
	}

	// Lifecycle errors: restarting a done scenario conflicts; unknown ids
	// and bad configs are clean HTTP errors.
	if resp, _ = postJSON(t, client, srv.URL+"/scenarios/synth/start", struct{}{}); resp.StatusCode != http.StatusConflict {
		t.Fatalf("restart of done scenario: %d, want 409", resp.StatusCode)
	}
	if resp := getJSON(t, client, srv.URL+"/scenarios/nope/stats", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown scenario: %d, want 404", resp.StatusCode)
	}
	if resp, _ = postJSON(t, client, srv.URL+"/scenarios",
		map[string]any{"id": "synth", "source": "synth"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("duplicate id: %d, want 400", resp.StatusCode)
	}
	if resp, _ = postJSON(t, client, srv.URL+"/scenarios",
		map[string]any{"source": "mrt", "path": filepath.Join(t.TempDir(), "nope.mrt")}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing mrt file: %d, want 400", resp.StatusCode)
	}

	// Deleting one scenario ends its event stream and removes its routes;
	// the other keeps serving.
	req2, err := http.NewRequest("DELETE", srv.URL+"/scenarios/file", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = client.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete file: %d", resp.StatusCode)
	}
	if resp := getJSON(t, client, srv.URL+"/scenarios/file/stats", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted scenario still routed: %d", resp.StatusCode)
	}
	getJSON(t, client, srv.URL+"/scenarios/synth/conflicts", &conflicts)
	if conflicts.Count == 0 {
		t.Fatal("surviving scenario lost state after sibling delete")
	}
}

// TestSSEDisconnectUnsubscribes: cancelling the request context must
// remove the subscriber from the hub (no leak per departed client).
func TestSSEDisconnectUnsubscribes(t *testing.T) {
	reg := NewRegistry()
	s, err := reg.Create(ScenarioConfig{ID: "idle", Source: SourceSynth, Scale: "small"})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", srv.URL+"/scenarios/idle/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	if line, err := br.ReadString('\n'); err != nil || !strings.HasPrefix(line, ": subscribed") {
		t.Fatalf("SSE handshake line %q, err %v", line, err)
	}
	if n := s.Hub().Stats().Subscribers; n != 1 {
		t.Fatalf("%d subscribers after connect, want 1", n)
	}

	cancel()
	deadline := time.Now().Add(10 * time.Second)
	for s.Hub().Stats().Subscribers != 0 {
		if time.Now().After(deadline) {
			t.Fatal("subscriber not removed after client disconnect")
		}
		time.Sleep(5 * time.Millisecond)
	}
	reg.Delete("idle")
}

// TestPauseResumeDelete drives the pause/resume lifecycle against a paced
// replay and then deletes it mid-flight: the abort must wake the replay,
// close the hub, and leave the registry clean.
func TestPauseResumeDelete(t *testing.T) {
	reg := NewRegistry()
	s, err := reg.Create(ScenarioConfig{ID: "paced", Source: SourceSynth, Scale: "small", Shards: 2, DaysPerSec: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Pause(); err == nil {
		t.Fatal("pause of a created scenario should fail")
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err == nil {
		t.Fatal("double start should fail")
	}

	deadline := time.Now().Add(30 * time.Second)
	for s.Status().ClosedDays < 1 {
		if time.Now().After(deadline) {
			t.Fatal("paced replay closed no days")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := s.Pause(); err != nil {
		t.Fatal(err)
	}
	if err := s.Pause(); err == nil {
		t.Fatal("double pause should fail")
	}
	if got := s.Status().State; got != StatePaused {
		t.Fatalf("state %s after pause", got)
	}
	if err := s.Resume(); err != nil {
		t.Fatal(err)
	}
	if err := s.Resume(); err == nil {
		t.Fatal("double resume should fail")
	}

	// Delete mid-replay: aborts the paced replay promptly (the pacing
	// sleep and the record gate both watch the stop channel).
	start := time.Now()
	if !reg.Delete("paced") {
		t.Fatal("delete reported no scenario")
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("delete of an in-flight replay took %s", took)
	}
	if reg.Get("paced") != nil {
		t.Fatal("scenario still resolvable after delete")
	}
	if closedSub, _ := s.Hub().Subscribe(1, 0, false); closedSub == nil {
		t.Fatal("subscribe after delete returned nil")
	} else if _, open := <-closedSub.C; open {
		t.Fatal("hub still accepting subscribers after delete")
	}
	if reg.Delete("paced") {
		t.Fatal("double delete reported success")
	}
}

// TestScenarioConfigValidation exercises normalize's kind-independent
// rejections and defaults without HTTP (what depends on the source kind
// is TestSourceKinds').
func TestScenarioConfigValidation(t *testing.T) {
	bad := []ScenarioConfig{
		{ID: "has space"},
		{ID: "slash/ed"},
		{Source: "carrier-pigeon"},
		{Source: SourceSynth, DaysPerSec: -1},
		{Source: SourceSynth, Shards: MaxShards + 1},
		{Source: SourceSynth, MaxAttrs: -2},
		{Source: SourceSynth, Shards: -3},
		{Source: SourceSynth, EventBuffer: -1},
		{Source: SourceSynth, History: -5},
	}
	for _, cfg := range bad {
		if err := cfg.normalize(); err == nil {
			t.Fatalf("config %+v passed validation", cfg)
		}
	}

	cfg := ScenarioConfig{}
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	if cfg.Source != SourceSynth || cfg.Scale != "small" || cfg.History != 256 || cfg.EventBuffer != 1024 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}
