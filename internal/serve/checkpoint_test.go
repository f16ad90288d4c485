package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"moas/internal/stream"
)

// scenarioStats is the subset of /stats the checkpoint test compares.
type scenarioStats struct {
	Messages        uint64          `json:"messages"`
	Ops             uint64          `json:"ops"`
	TotalConflicts  int             `json:"total_conflicts"`
	ActiveConflicts int             `json:"active_conflicts"`
	Events          int             `json:"events"`
	Lifecycle       json.RawMessage `json:"lifecycle"`
}

// postCheckpoint takes the checkpoint of scenario id over the API and
// returns the file it answers with.
func postCheckpoint(t *testing.T, client *http.Client, base, id string) []byte {
	t.Helper()
	resp, err := client.Post(base+"/scenarios/"+id+"/checkpoint", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint %s: %d %s", id, resp.StatusCode, blob)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("checkpoint %s: content type %q, want application/octet-stream", id, ct)
	}
	return blob
}

// TestCheckpointOneFile: a checkpoint has one form wherever it leaves or
// enters the daemon. On one paused scenario, the file POST /checkpoint
// answers with is byte for byte the one the store writes and GET serves;
// it restores through a create body (base64) and, dropped into another
// daemon's checkpoint directory, through Recover. A checkpoint in the
// JSON form the API once answered with is refused by a create with a 400
// that says so, and skipped by Recover for the next older file.
func TestCheckpointOneFile(t *testing.T) {
	reg := NewRegistry()
	reg.Durability = Durability{Dir: t.TempDir(), Interval: time.Hour}
	defer reg.Close()
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()
	client := srv.Client()

	resp, body := postJSON(t, client, srv.URL+"/scenarios",
		map[string]any{"id": "orig", "source": "synth", "scale": "small", "shards": 2, "days_per_sec": 200, "start": true})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create orig: %d %v", resp.StatusCode, body)
	}
	orig := reg.Get("orig")
	deadline := time.Now().Add(60 * time.Second)
	for orig.Status().ClosedDays < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("scenario never reached day 5: %+v", orig.Status())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := orig.Pause(); err != nil {
		t.Fatal(err)
	}

	posted := postCheckpoint(t, client, srv.URL, "orig")
	path, err := reg.CheckpointNow("orig")
	if err != nil {
		t.Fatal(err)
	}
	stored, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	getResp, err := client.Get(srv.URL + "/scenarios/orig/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	served, err := io.ReadAll(getResp.Body)
	getResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if getResp.StatusCode != http.StatusOK || !bytes.Equal(posted, stored) || !bytes.Equal(posted, served) {
		t.Fatalf("GET %d: POST answered %d bytes, the store wrote %d, GET served %d; want one file",
			getResp.StatusCode, len(posted), len(stored), len(served))
	}
	ck, err := ReadScenarioCheckpoint(posted)
	if err != nil {
		t.Fatal(err)
	}
	if ck.DaysClosed < 5 || ck.DaysClosed >= ck.TotalDays {
		t.Fatalf("checkpoint not mid-archive: %d/%d days", ck.DaysClosed, ck.TotalDays)
	}

	resp, body = postJSON(t, client, srv.URL+"/scenarios",
		map[string]any{"id": "viacreate", "source": "checkpoint", "checkpoint": posted})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create from the posted file: %d %v", resp.StatusCode, body)
	}
	if got := reg.Get("viacreate").Status().ClosedDays; got != ck.DaysClosed {
		t.Fatalf("created at day %d, checkpoint was day %d", got, ck.DaysClosed)
	}

	// The JSON form: what the parent API answered, an object with the
	// envelope's members and the engine image.
	legacy := []byte(`{"version":1,"config":{"source":"synth","scale":"small"},"total_days":60,"days_closed":5,"last_event_id":9,"engine":{"version":1}}`)
	resp, body = postJSON(t, client, srv.URL+"/scenarios",
		map[string]any{"id": "legacy", "source": "checkpoint", "checkpoint": json.RawMessage(legacy)})
	if msg, _ := body["error"].(string); resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg, "JSON checkpoints are no longer read") {
		t.Fatalf("create from a JSON checkpoint: %d %v", resp.StatusCode, body)
	}

	// Another daemon's checkpoint directory: the posted file, and a newer
	// JSON one.
	dir := t.TempDir()
	moved := filepath.Join(dir, "moved")
	if err := os.MkdirAll(moved, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(moved, "ck-0000000001.mckpt"), posted, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(moved, "ck-0000000002.mckpt"), legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	var logs strings.Builder
	var logMu sync.Mutex
	other := NewRegistry()
	other.Durability = Durability{Dir: dir, Interval: time.Hour}
	other.Logf = func(format string, args ...any) {
		logMu.Lock()
		defer logMu.Unlock()
		fmt.Fprintf(&logs, format+"\n", args...)
	}
	defer other.Close()
	if n, err := other.Recover(); err != nil || n != 1 {
		t.Fatalf("recovered %d scenarios (%v), want 1", n, err)
	}
	if got := other.Get("moved").Status().ClosedDays; got != ck.DaysClosed {
		t.Fatalf("recovered at day %d, checkpoint was day %d", got, ck.DaysClosed)
	}
	// The JSON file is skipped as the retired format it is: calling it
	// corrupt would send an operator looking for disk damage.
	logMu.Lock()
	defer logMu.Unlock()
	var line string
	for _, l := range strings.Split(logs.String(), "\n") {
		if strings.Contains(l, "ck-0000000002.mckpt") {
			line = l
		}
	}
	if !strings.Contains(line, "skipping checkpoint in the retired JSON format") || strings.Contains(line, "corrupt") {
		t.Fatalf("recover logged the JSON file it skipped as %q, want the retired format, not corruption:\n%s", line, logs.String())
	}
}

// TestCheckpointRestoreHTTP is the persistence acceptance test at the
// serving layer: pause a replay mid-archive, POST checkpoint, restore the
// payload into a brand-new scenario (as a crashed-and-restarted daemon
// would), run it to completion, and require the exact end state of an
// uninterrupted run of the same scenario.
func TestCheckpointRestoreHTTP(t *testing.T) {
	reg := NewRegistry()
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()
	client := srv.Client()

	// Checkpointing a running scenario must be refused.
	resp, _ := postJSON(t, client, srv.URL+"/scenarios",
		map[string]any{"id": "orig", "source": "synth", "scale": "small", "shards": 2,
			"days_per_sec": 20, "start": true})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create orig: %d", resp.StatusCode)
	}
	if resp, _ := postJSON(t, client, srv.URL+"/scenarios/orig/checkpoint", struct{}{}); resp.StatusCode != http.StatusConflict {
		t.Fatalf("checkpoint of running scenario: %d, want 409", resp.StatusCode)
	}

	// Wait until the replay is visibly mid-archive, then pause it there.
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st struct {
			State      string `json:"state"`
			ClosedDays int    `json:"closed_days"`
			TotalDays  int    `json:"total_days"`
		}
		getJSON(t, client, srv.URL+"/scenarios/orig", &st)
		if st.State == "running" && st.ClosedDays >= 5 && st.ClosedDays < st.TotalDays/2 {
			break
		}
		if st.State == "done" || time.Now().After(deadline) {
			t.Fatalf("could not catch the replay mid-archive: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if resp, body := postJSON(t, client, srv.URL+"/scenarios/orig/pause", struct{}{}); resp.StatusCode != http.StatusOK {
		t.Fatalf("pause: %d %v", resp.StatusCode, body)
	}

	// Checkpoint the paused scenario and verify the payload is a
	// checkpoint file describing a mid-archive position.
	blob := postCheckpoint(t, client, srv.URL, "orig")
	ck, err := ReadScenarioCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Version != ScenarioCheckpointVersion || ck.Engine == nil ||
		ck.DaysClosed == 0 || ck.DaysClosed >= ck.TotalDays || ck.Engine.Records == 0 {
		t.Fatalf("checkpoint not mid-archive: version=%d days=%d/%d records=%d",
			ck.Version, ck.DaysClosed, ck.TotalDays, ck.Engine.Records)
	}
	if ck.Config.Source != SourceSynth || ck.Config.Scale != "small" {
		t.Fatalf("checkpoint carries config %+v", ck.Config)
	}

	// The original is dead weight now — delete it, as a restart would.
	delReq, _ := http.NewRequest("DELETE", srv.URL+"/scenarios/orig", nil)
	delResp, err := client.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusOK {
		t.Fatalf("delete orig: %d", delResp.StatusCode)
	}

	// Restore from the checkpoint (different shard count — checkpoints are
	// layout-independent) and run the rest of the archive.
	resp, body := postJSON(t, client, srv.URL+"/scenarios", map[string]any{
		"id": "restored", "source": "checkpoint", "shards": 3, "start": true,
		"checkpoint": blob,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create restored: %d %v", resp.StatusCode, body)
	}
	var restoredStatus struct {
		ClosedDays int `json:"closed_days"`
		TotalDays  int `json:"total_days"`
	}
	getJSON(t, client, srv.URL+"/scenarios/restored", &restoredStatus)
	if restoredStatus.ClosedDays != ck.DaysClosed || restoredStatus.TotalDays != ck.TotalDays {
		t.Fatalf("restored scenario starts at %+v, checkpoint was %d/%d",
			restoredStatus, ck.DaysClosed, ck.TotalDays)
	}

	// Control: the same scenario, uninterrupted.
	resp, _ = postJSON(t, client, srv.URL+"/scenarios",
		map[string]any{"id": "control", "source": "synth", "scale": "small", "shards": 2, "start": true})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create control: %d", resp.StatusCode)
	}
	waitState(t, client, srv.URL+"/scenarios/restored", "done")
	waitState(t, client, srv.URL+"/scenarios/control", "done")

	var restoredStats, controlStats scenarioStats
	getJSON(t, client, srv.URL+"/scenarios/restored/stats", &restoredStats)
	getJSON(t, client, srv.URL+"/scenarios/control/stats", &controlStats)
	if restoredStats.Messages != controlStats.Messages || restoredStats.Ops != controlStats.Ops ||
		restoredStats.TotalConflicts != controlStats.TotalConflicts ||
		restoredStats.ActiveConflicts != controlStats.ActiveConflicts ||
		restoredStats.Events != controlStats.Events ||
		string(restoredStats.Lifecycle) != string(controlStats.Lifecycle) {
		t.Fatalf("restored run diverges from uninterrupted run:\nrestored %+v\ncontrol  %+v",
			restoredStats, controlStats)
	}
	if restoredStats.TotalConflicts == 0 {
		t.Fatal("comparison vacuous: no conflicts")
	}
	// The SSE id-space must continue across the restore: after both runs
	// published every event, the restored scenario's cursor equals the
	// uninterrupted one's (so clients' Last-Event-ID stays monotonic).
	var restoredSt, controlSt struct {
		LastEventID uint64 `json:"last_event_id"`
	}
	getJSON(t, client, srv.URL+"/scenarios/restored", &restoredSt)
	getJSON(t, client, srv.URL+"/scenarios/control", &controlSt)
	if restoredSt.LastEventID != controlSt.LastEventID || restoredSt.LastEventID == 0 {
		t.Fatalf("SSE id-space broke across restore: restored %d, control %d",
			restoredSt.LastEventID, controlSt.LastEventID)
	}
	var restoredConflicts, controlConflicts json.RawMessage
	getJSON(t, client, srv.URL+"/scenarios/restored/conflicts", &restoredConflicts)
	getJSON(t, client, srv.URL+"/scenarios/control/conflicts", &controlConflicts)
	var rc, cc any
	if err := json.Unmarshal(restoredConflicts, &rc); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(controlConflicts, &cc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rc, cc) {
		t.Fatal("restored conflict set differs from uninterrupted run")
	}
}

// TestCheckpointConfigValidation exercises the checkpoint-source
// rejections.
func TestCheckpointConfigValidation(t *testing.T) {
	if err := (&ScenarioConfig{Source: SourceCheckpoint}).normalize(); err == nil {
		t.Fatal("checkpoint source without payload accepted")
	}
	if err := (&ScenarioConfig{Source: SourceSynth, Checkpoint: &ScenarioCheckpoint{}}).normalize(); err == nil {
		t.Fatal("checkpoint payload on synth source accepted")
	}
	bad := &ScenarioConfig{Source: SourceCheckpoint, Checkpoint: &ScenarioCheckpoint{
		Version: 99,
	}}
	if err := bad.normalize(); err == nil {
		t.Fatal("future checkpoint version accepted")
	}
	nested := &ScenarioConfig{Source: SourceCheckpoint, Checkpoint: &ScenarioCheckpoint{
		Version: ScenarioCheckpointVersion,
		Engine:  &stream.Checkpoint{Version: stream.CheckpointVersion},
		Config:  ScenarioConfig{Source: SourceCheckpoint},
	}}
	if err := nested.normalize(); err == nil {
		t.Fatal("nested checkpoint source accepted")
	}
}

// TestDecodeWorkersIgnored: decode_workers, the knob of the decode
// workers replays no longer have, is accepted in a create body and in a
// checkpoint's config, so saved bodies and checkpoints that carry it
// still load, and no scenario stores it: a checkpoint taken afterwards
// does not carry it.
func TestDecodeWorkersIgnored(t *testing.T) {
	deprecatedKnobIgnored(t, "decode_workers", 2, func(c *ScenarioConfig) { c.DecodeWorkers = 2 })
}

// TestHistoryIgnored: history, the cap of the per-prefix event history
// scenarios no longer keep, is accepted and dropped the same way.
func TestHistoryIgnored(t *testing.T) {
	deprecatedKnobIgnored(t, "history", 8, func(c *ScenarioConfig) { c.History = 8 })
}

// TestMaxAttrsIgnored: max_attrs, the interner cap every engine now
// takes from bgp.DefaultInternCap, is accepted and dropped the same way,
// whatever its value (-7 was refused while it was a knob).
func TestMaxAttrsIgnored(t *testing.T) {
	deprecatedKnobIgnored(t, "max_attrs", -7, func(c *ScenarioConfig) { c.MaxAttrs = -7 })
}

// deprecatedKnobIgnored creates a scenario whose body sets knob to value,
// then restores a checkpoint whose config carries it (set puts it there)
// through a request that sets it too: both must be accepted, and neither
// scenario's checkpoint may carry the knob.
func deprecatedKnobIgnored(t *testing.T, knob string, value int, set func(*ScenarioConfig)) {
	reg := NewRegistry()
	defer reg.Close()
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()
	client := srv.Client()

	checkpoint := func(id string) *ScenarioCheckpoint {
		t.Helper()
		raw := postCheckpoint(t, client, srv.URL, id)
		if bytes.Contains(raw, []byte(`"`+knob+`"`)) {
			t.Fatalf("checkpoint of %s stores %s", id, knob)
		}
		ck, err := ReadScenarioCheckpoint(raw)
		if err != nil {
			t.Fatal(err)
		}
		return ck
	}

	resp, body := postJSON(t, client, srv.URL+"/scenarios",
		map[string]any{"id": "w", "source": "synth", "scale": "small", knob: value})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create with %s: %d %v", knob, resp.StatusCode, body)
	}
	ck := checkpoint("w")
	// As a checkpoint written while the knob was live would carry it.
	set(&ck.Config)
	blob, err := AppendScenarioCheckpointBinary(nil, ck)
	if err != nil {
		t.Fatal(err)
	}
	resp, body = postJSON(t, client, srv.URL+"/scenarios",
		map[string]any{"id": "w2", "source": "checkpoint", "checkpoint": blob, knob: value})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("restore of a checkpoint config with %s: %d %v", knob, resp.StatusCode, body)
	}
	checkpoint("w2")
}
