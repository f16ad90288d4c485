package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
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

	// Checkpoint the paused scenario and verify the payload is portable
	// JSON describing a mid-archive position.
	req, err := http.NewRequest("POST", srv.URL+"/scenarios/orig/checkpoint", nil)
	if err != nil {
		t.Fatal(err)
	}
	ckResp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer ckResp.Body.Close()
	if ckResp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint: %d", ckResp.StatusCode)
	}
	var ck ScenarioCheckpoint
	if err := json.NewDecoder(ckResp.Body).Decode(&ck); err != nil {
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
		"checkpoint": ck,
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
	reg := NewRegistry()
	defer reg.Close()
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()
	client := srv.Client()

	checkpoint := func(id string) ScenarioCheckpoint {
		t.Helper()
		resp, err := client.Post(srv.URL+"/scenarios/"+id+"/checkpoint", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("checkpoint %s: %d %s", id, resp.StatusCode, raw)
		}
		if bytes.Contains(raw, []byte("decode_workers")) {
			t.Fatalf("checkpoint of %s stores decode_workers", id)
		}
		var ck ScenarioCheckpoint
		if err := json.Unmarshal(raw, &ck); err != nil {
			t.Fatal(err)
		}
		return ck
	}

	resp, body := postJSON(t, client, srv.URL+"/scenarios",
		map[string]any{"id": "w", "source": "synth", "scale": "small", "decode_workers": 2})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create with decode_workers: %d %v", resp.StatusCode, body)
	}
	ck := checkpoint("w")
	// As a checkpoint written while the knob was live would carry it.
	ck.Config.DecodeWorkers = 2
	resp, body = postJSON(t, client, srv.URL+"/scenarios",
		map[string]any{"id": "w2", "source": "checkpoint", "checkpoint": ck})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("restore of a checkpoint config with decode_workers: %d %v", resp.StatusCode, body)
	}
	checkpoint("w2")
}
