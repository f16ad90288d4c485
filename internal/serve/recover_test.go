package serve

import (
	"bytes"
	"encoding/json"
	"errors"
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

	"moas/internal/binenc"
	"moas/internal/binenc/binenctest"
	"moas/internal/stream"
	"moas/internal/vfs"
)

// pausedCheckpoint runs a small scenario a few days in, pauses it, and
// returns its checkpoint — a realistic mid-archive ScenarioCheckpoint
// for the durability unit tests — plus the registry hosting it.
func pausedCheckpoint(t *testing.T, reg *Registry) *ScenarioCheckpoint {
	t.Helper()
	s, err := reg.Create(ScenarioConfig{ID: "fixture", Source: SourceSynth, Scale: "small", Shards: 2, DaysPerSec: 200})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for s.Status().ClosedDays < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("scenario never reached day 5: %+v", s.Status())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := s.Pause(); err != nil {
		t.Fatal(err)
	}
	ck, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !reg.Delete("fixture") {
		t.Fatal("fixture scenario vanished")
	}
	return ck
}

// TestScenarioCheckpointFileCodec: the checkpoint file round-trips a
// real mid-archive scenario checkpoint exactly, and damage (truncation,
// trailing garbage, a junk byte in the envelope frame), a file without
// the magic and a JSON document are rejected, the last as retired.
func TestScenarioCheckpointFileCodec(t *testing.T) {
	ck := pausedCheckpoint(t, NewRegistry())
	bin, err := AppendScenarioCheckpointBinary(nil, ck)
	if err != nil {
		t.Fatal(err)
	}
	// The engine frame is encoded in place; it must still be exactly the
	// engine's own encoding behind a length prefix.
	eng, err := stream.AppendCheckpointBinary(nil, ck.Engine)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(bin, binenc.AppendFrame(nil, eng)) {
		t.Fatal("engine frame differs from the framed engine checkpoint")
	}
	got, err := ReadScenarioCheckpoint(bin)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ck, got) {
		t.Fatal("file round trip changed the checkpoint")
	}
	for _, cut := range []int{0, 2, len(bin) / 4, len(bin) / 2, len(bin) - 1} {
		if _, err := ReadScenarioCheckpoint(bin[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := ReadScenarioCheckpoint(append(bytes.Clone(bin), 7)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	// The frames start after the magic and the one-byte version.
	envPadded := binenctest.Padded(t, bin, len(scenarioCheckpointMagic)+1, "envelope", "engine")[0]
	if _, err := ReadScenarioCheckpoint(envPadded.Data); err == nil {
		t.Fatal("a junk byte in the envelope frame accepted")
	}
	if _, err := ReadScenarioCheckpoint(bin[len(scenarioCheckpointMagic):]); err == nil || errors.Is(err, binenc.ErrRetired) {
		t.Fatalf("a file without the magic: %v", err)
	}
	if _, err := ReadScenarioCheckpoint([]byte(` {"version":1}`)); !errors.Is(err, binenc.ErrRetired) {
		t.Fatalf("a JSON checkpoint: %v, want %v", err, binenc.ErrRetired)
	}
}

// TestCheckpointStoreRotation: writes rotate atomically — no temp debris
// — and prune to the configured depth, newest last by name.
func TestCheckpointStoreRotation(t *testing.T) {
	ck := pausedCheckpoint(t, NewRegistry())
	st := checkpointStore{dir: filepath.Join(t.TempDir(), "s1"), keep: 2, fs: vfs.OS{}}
	var paths []string
	for i := 0; i < 4; i++ {
		p, err := st.write(ck)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	files := st.files()
	if len(files) != 2 {
		t.Fatalf("rotation kept %d files (%v), want 2", len(files), files)
	}
	if want := filepath.Base(paths[3]); files[0] != want {
		t.Fatalf("newest file is %s, want %s", files[0], want)
	}
	ents, err := os.ReadDir(st.dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".") {
			t.Fatalf("temp debris left behind: %s", e.Name())
		}
	}
	latest, ok := st.latest()
	if !ok || latest != paths[3] {
		t.Fatalf("latest = %s (%v), want %s", latest, ok, paths[3])
	}
}

// TestRecoverFallsBackOnCorruptNewest: boot recovery must survive
// exactly the failure auto-checkpointing is for — the crash interrupted
// the newest write — by falling back to the previous file, and must
// skip a scenario (not fail the boot) when every file is rotten.
func TestRecoverFallsBackOnCorruptNewest(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry()
	reg.Durability = Durability{Dir: dir}
	ck := pausedCheckpoint(t, reg)

	st := reg.storeFor("victim")
	if _, err := st.write(ck); err != nil {
		t.Fatal(err)
	}
	newest, err := st.write(ck)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, blob[:len(blob)/3], 0o644); err != nil {
		t.Fatal(err)
	}

	// A directory where every checkpoint is garbage.
	hopeless := reg.storeFor("hopeless")
	if err := os.MkdirAll(hopeless.dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(hopeless.dir, "ck-0000000001.mckpt"), []byte("MSCKgarbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	n, err := reg.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("recovered %d scenarios, want 1", n)
	}
	s := reg.Get("victim")
	if s == nil {
		t.Fatal("victim not recovered")
	}
	if reg.Get("hopeless") != nil {
		t.Fatal("hopeless directory produced a scenario")
	}
	if got := s.Status().ClosedDays; got != ck.DaysClosed {
		t.Fatalf("recovered at day %d, checkpoint was day %d", got, ck.DaysClosed)
	}
	reg.Close()
}

// TestRecoverSkipsRetiredNewest: a scenario whose newest file holds an
// engine image in a retired form — container 1, or kernel snapshot 1-3 —
// boots from the next older file, and the log calls the skipped file
// retired, not corrupt. The retired files are the current one with the
// version byte set back; the version is all the readers look at.
func TestRecoverSkipsRetiredNewest(t *testing.T) {
	dir := t.TempDir()
	ck := pausedCheckpoint(t, NewRegistry())
	bin, err := AppendScenarioCheckpointBinary(nil, ck)
	if err != nil {
		t.Fatal(err)
	}
	eng := bytes.Index(bin, []byte("MCKP"))
	msnp := bytes.Index(bin, []byte("MSNP"))
	if eng < 0 || msnp < 0 {
		t.Fatal("no engine or kernel image in the file")
	}
	retired := map[string]int{"container": eng + len("MCKP"), "snapshot": msnp + len("MSNP")}
	versions := map[string][]byte{"container": {1}, "snapshot": {1, 2, 3}}
	var ids []string
	for form, at := range retired {
		for _, v := range versions[form] {
			id := fmt.Sprintf("%s%d", form, v)
			ids = append(ids, id)
			old := bytes.Clone(bin)
			old[at] = v
			if err := os.MkdirAll(filepath.Join(dir, id), 0o755); err != nil {
				t.Fatal(err)
			}
			for name, data := range map[string][]byte{"ck-0000000001.mckpt": bin, "ck-0000000002.mckpt": old} {
				if err := os.WriteFile(filepath.Join(dir, id, name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	var logs strings.Builder
	var logMu sync.Mutex
	reg := NewRegistry()
	reg.Durability = Durability{Dir: dir, Interval: time.Hour}
	reg.Logf = func(format string, args ...any) {
		logMu.Lock()
		defer logMu.Unlock()
		fmt.Fprintf(&logs, format+"\n", args...)
	}
	defer reg.Close()
	if n, err := reg.Recover(); err != nil || n != len(ids) {
		t.Fatalf("recovered %d scenarios (%v), want %d", n, err, len(ids))
	}
	logMu.Lock()
	defer logMu.Unlock()
	for _, id := range ids {
		if got := reg.Get(id).Status().ClosedDays; got != ck.DaysClosed {
			t.Errorf("%s: recovered at day %d, checkpoint was day %d", id, got, ck.DaysClosed)
		}
		skipped := filepath.Join(id, "ck-0000000002.mckpt")
		var line string
		for _, l := range strings.Split(logs.String(), "\n") {
			if strings.Contains(l, skipped) {
				line = l
			}
		}
		if !strings.Contains(line, "skipping checkpoint in a retired format") || strings.Contains(line, "corrupt") ||
			!strings.Contains(line, "a105d34") {
			t.Errorf("%s: recover logged the retired file it skipped as %q, want the retired format, not corruption:\n%s",
				id, line, logs.String())
		}
	}
}

// TestKillAndRecover is the PR's acceptance test: a scenario replaying
// under periodic auto-checkpoint is torn down mid-archive — losing all
// progress past the last checkpoint file, as a crash would — recovered
// by a fresh registry from the checkpoint directory alone, and run to
// completion. Its final registry and stats must be identical to an
// uninterrupted run's.
func TestKillAndRecover(t *testing.T) {
	dir := t.TempDir()
	dur := Durability{Dir: dir, Interval: 15 * time.Millisecond, Keep: 3}

	// First life: replay with auto-checkpointing, then "crash" while
	// visibly mid-archive with at least one checkpoint on disk.
	reg1 := NewRegistry()
	reg1.Durability = dur
	s, err := reg1.Create(ScenarioConfig{ID: "victim", Source: SourceSynth, Scale: "small", Shards: 2, DaysPerSec: 40})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	st := reg1.storeFor("victim")
	deadline := time.Now().Add(60 * time.Second)
	for {
		status := s.Status()
		_, haveFile := st.latest()
		if haveFile && status.ClosedDays >= 3 && status.TotalDays > 0 && status.ClosedDays < status.TotalDays-5 {
			break
		}
		if status.State == StateDone || time.Now().After(deadline) {
			t.Fatalf("could not catch the replay mid-archive with a checkpoint on disk: %+v", status)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if s.Status().State != StateRunning {
		t.Fatalf("auto-checkpointing perturbed the public state: %s", s.Status().State)
	}
	reg1.Close() // the "crash": everything after the last checkpoint file is lost

	// Second life: recover from disk alone and finish the archive.
	reg2 := NewRegistry()
	reg2.Durability = dur
	n, err := reg2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("recovered %d scenarios, want 1", n)
	}
	srv := httptest.NewServer(NewHandler(reg2))
	defer srv.Close()
	defer reg2.Close()
	client := srv.Client()

	// Control: the same scenario, uninterrupted (different shard count —
	// checkpoints are layout-independent).
	resp, body := postJSON(t, client, srv.URL+"/scenarios",
		map[string]any{"id": "control", "source": "synth", "scale": "small", "shards": 3, "start": true})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create control: %d %v", resp.StatusCode, body)
	}
	waitState(t, client, srv.URL+"/scenarios/victim", "done")
	waitState(t, client, srv.URL+"/scenarios/control", "done")

	var victimStats, controlStats scenarioStats
	getJSON(t, client, srv.URL+"/scenarios/victim/stats", &victimStats)
	getJSON(t, client, srv.URL+"/scenarios/control/stats", &controlStats)
	if victimStats.Messages != controlStats.Messages || victimStats.Ops != controlStats.Ops ||
		victimStats.TotalConflicts != controlStats.TotalConflicts ||
		victimStats.ActiveConflicts != controlStats.ActiveConflicts ||
		victimStats.Events != controlStats.Events ||
		string(victimStats.Lifecycle) != string(controlStats.Lifecycle) {
		t.Fatalf("recovered run diverges from uninterrupted run:\nrecovered %+v\ncontrol   %+v",
			victimStats, controlStats)
	}
	if victimStats.TotalConflicts == 0 {
		t.Fatal("comparison vacuous: no conflicts")
	}
	var victimConflicts, controlConflicts json.RawMessage
	getJSON(t, client, srv.URL+"/scenarios/victim/conflicts", &victimConflicts)
	getJSON(t, client, srv.URL+"/scenarios/control/conflicts", &controlConflicts)
	if string(victimConflicts) != string(controlConflicts) {
		t.Fatal("recovered conflict registry is not byte-identical to the uninterrupted run")
	}
}

// TestCheckpointEndpointGET: the download endpoint serves the newest
// on-disk checkpoint bytes verbatim (and 404s with durability off or
// before the first write), and DELETE removes the scenario's checkpoint
// directory so it cannot resurrect at the next boot.
func TestCheckpointEndpointGET(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry()
	reg.Durability = Durability{Dir: dir, Interval: 10 * time.Millisecond, Keep: 2}
	defer reg.Close()
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()
	client := srv.Client()

	resp, body := postJSON(t, client, srv.URL+"/scenarios",
		map[string]any{"id": "dl", "source": "synth", "scale": "small", "shards": 2, "days_per_sec": 40, "start": true})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %v", resp.StatusCode, body)
	}
	// Before the first auto-checkpoint lands, the download 404s. (Timing
	// may let one land immediately; accept either, but require the 404
	// error body to be well-formed JSON when it happens.)
	if r := getJSON(t, client, srv.URL+"/scenarios/dl/checkpoint", nil); r.StatusCode != http.StatusNotFound && r.StatusCode != http.StatusOK {
		t.Fatalf("GET checkpoint before write: %d", r.StatusCode)
	}

	st := reg.storeFor("dl")
	deadline := time.Now().Add(60 * time.Second)
	for {
		if _, ok := st.latest(); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no auto-checkpoint file appeared")
		}
		time.Sleep(2 * time.Millisecond)
	}

	httpResp, err := client.Get(srv.URL + "/scenarios/dl/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("GET checkpoint: %d", httpResp.StatusCode)
	}
	if ct := httpResp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("content type %q, want application/octet-stream", ct)
	}
	blob, err := io.ReadAll(httpResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := ReadScenarioCheckpoint(blob)
	if err != nil {
		t.Fatalf("served checkpoint bytes do not decode: %v", err)
	}
	if ck.Config.Source != SourceSynth || ck.Config.Scale != "small" {
		t.Fatalf("served checkpoint carries config %+v", ck.Config)
	}

	// DELETE must take the on-disk state with it.
	delReq, _ := http.NewRequest("DELETE", srv.URL+"/scenarios/dl", nil)
	delResp, err := client.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d", delResp.StatusCode)
	}
	if _, err := os.Stat(st.dir); !os.IsNotExist(err) {
		t.Fatalf("checkpoint dir survived delete: %v", err)
	}
}

// TestDotDotIDRejected: scenario IDs name checkpoint directories now, so
// the traversal names "." and ".." must be refused at validation.
func TestDotDotIDRejected(t *testing.T) {
	for _, id := range []string{".", ".."} {
		if err := (&ScenarioConfig{ID: id}).normalize(); err == nil {
			t.Fatalf("id %q accepted", id)
		}
	}
	if err := (&ScenarioConfig{ID: "ok-1.2_3"}).normalize(); err != nil {
		t.Fatalf("legitimate id rejected: %v", err)
	}
}

// TestRecoverCleansStaleTempFiles: a crash can strand the dot-hidden
// ".tmp-ck-*" file write was filling. The store's listing and sequence
// scan must never see such debris, and boot recovery must sweep it while
// still falling back past a corrupt newest checkpoint to the older good
// file — the exact double-failure a mid-write crash produces.
func TestRecoverCleansStaleTempFiles(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry()
	reg.Durability = Durability{Dir: dir}
	ck := pausedCheckpoint(t, reg)

	st := reg.storeFor("victim")
	if _, err := st.write(ck); err != nil {
		t.Fatal(err)
	}
	newest, err := st.write(ck)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	// The crash: the newest checkpoint is cut short and the write that
	// was in flight leaves its temp file behind.
	if err := os.WriteFile(newest, blob[:len(blob)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	stray := filepath.Join(st.dir, ".tmp-ck-3141592653")
	if err := os.WriteFile(stray, []byte("partial write"), 0o644); err != nil {
		t.Fatal(err)
	}

	// The stray is invisible to rotation: not listed, not counted toward
	// the next sequence number.
	for _, name := range st.files() {
		if strings.HasPrefix(name, ".") {
			t.Fatalf("files() listed temp debris %s", name)
		}
	}
	if got := st.nextSeq(); got != 3 {
		t.Fatalf("nextSeq = %d with temp debris present, want 3", got)
	}

	n, err := reg.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("recovered %d scenarios, want 1", n)
	}
	defer reg.Close()
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatalf("stale temp survived recovery: %v", err)
	}
	s := reg.Get("victim")
	if s == nil {
		t.Fatal("victim not recovered")
	}
	if got := s.Status().ClosedDays; got != ck.DaysClosed {
		t.Fatalf("recovered at day %d, want %d (the older good checkpoint)", got, ck.DaysClosed)
	}
}
