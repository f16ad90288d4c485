package serve

import (
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"moas/internal/source"
	"moas/internal/stream"
	"moas/internal/vfs"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Delete must not race the auto-checkpoint loop into resurrecting the
// scenario's checkpoint directory: shutdown waits for the loop before
// the directory is removed, so a write in flight at Delete time lands
// (or fails) entirely before the RemoveAll. Slow-IO faults on the write
// path hold every checkpoint write open for ~20ms against a 2ms
// interval, so Delete reliably arrives mid-write; under -race this also
// exercises the loop/shutdown handoff.
func TestDeleteVsAutoCheckpointRace(t *testing.T) {
	root := t.TempDir()
	fs := vfs.NewFaulty(nil)
	fs.AddFault(vfs.Fault{Op: vfs.OpWrite, Delay: 10 * time.Millisecond})
	fs.AddFault(vfs.Fault{Op: vfs.OpSync, Delay: 10 * time.Millisecond})
	reg := NewRegistry()
	reg.Durability = Durability{Dir: root, Interval: 2 * time.Millisecond, Keep: 2, FS: fs}
	defer reg.Close()

	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("victim-%d", i)
		s, err := reg.Create(ScenarioConfig{ID: id, Source: SourceSynth, Scale: "small", Shards: 2, DaysPerSec: 50})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		st := reg.storeFor(id)
		waitFor(t, 30*time.Second, "first auto-checkpoint on disk", func() bool {
			_, ok := st.latest()
			return ok
		})
		if !reg.Delete(id) {
			t.Fatalf("Delete(%s) found nothing", id)
		}
		// Delete returned: no writer may still be in flight, so the
		// directory must already be gone — not "gone soon".
		if _, err := os.Stat(st.dir); !os.IsNotExist(err) {
			t.Fatalf("iteration %d: checkpoint dir survived delete (stat err: %v)", i, err)
		}
	}

	// A loop iteration that outlived its Delete would re-create a
	// directory (or strand a .tmp- file) here.
	time.Sleep(50 * time.Millisecond)
	ents, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	var leaked []string
	for _, e := range ents {
		leaked = append(leaked, e.Name())
	}
	if len(leaked) != 0 {
		t.Fatalf("durability root not empty after deletes: %v", leaked)
	}
}

// deadEndpointURL returns a ws:// URL on a loopback port that was just
// closed, so every dial fails with connection refused.
func deadEndpointURL(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return "ws://" + addr + "/v1/ws/"
}

// A scenario that fails on every (re)start must stop being restarted at
// the crash-loop cap and stay visibly failed — without taking the
// registry with it. The feed is a dead endpoint, so the initial run and
// both supervised restarts (restored from a seeded live checkpoint) all
// fail their dial immediately.
func TestRestartPolicyCrashLoopCap(t *testing.T) {
	url := deadEndpointURL(t)
	reg := NewRegistry()
	reg.Durability = Durability{Dir: t.TempDir(), Interval: time.Hour}
	reg.RestartPolicy = RestartPolicy{
		Enabled: true,
		Max:     2,
		Backoff: source.Backoff{Base: time.Millisecond, Max: 4 * time.Millisecond},
	}
	defer reg.Close()

	// Seed the store with what a live scenario's auto-checkpoint writes
	// (a fresh engine: a live feed that dies right after connecting has
	// consumed nothing), so the restart path has something to restore.
	const id = "flappy"
	eng := stream.New(stream.Config{Shards: 2})
	eck := eng.Checkpoint()
	eng.Close()
	seed := &ScenarioCheckpoint{
		Version:   ScenarioCheckpointVersion,
		Config:    ScenarioConfig{ID: id, Source: SourceRISLive, URL: url, Shards: 2, EventBuffer: 1024},
		TotalDays: -1,
		Engine:    eck,
	}
	if _, err := reg.storeFor(id).write(seed); err != nil {
		t.Fatal(err)
	}

	s, err := reg.Create(ScenarioConfig{ID: id, Source: SourceRISLive, URL: url, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}

	// Initial failure, restart 1 fails, restart 2 fails, cap reached.
	waitFor(t, 30*time.Second, "crash-loop cap", func() bool {
		cur := reg.Get(id) // nil during a restart swap
		return cur != nil && cur.Status().State == StateFailed && cur.Health().Restarts == 2
	})
	final := reg.Get(id)
	time.Sleep(50 * time.Millisecond)
	if cur := reg.Get(id); cur != final {
		t.Fatal("scenario replaced again after the crash-loop cap")
	}
	h := final.Health()
	if h.OK || h.Supervisor.OK {
		t.Fatalf("capped scenario reports healthy: %+v", h)
	}
	if final.Status().Error == "" {
		t.Fatalf("failed scenario carries no error: %+v", final.Status())
	}

	// The registry shrugged the crash loop off: creates still work.
	if _, err := reg.Create(ScenarioConfig{ID: "bystander", Source: SourceSynth, Scale: "small", Shards: 2}); err != nil {
		t.Fatalf("registry unusable after crash-loop cap: %v", err)
	}
}

// /healthz aggregates per-scenario subsystem health: a failed scenario
// flips the document to "degraded" and lands in the failed list, while
// healthy scenarios stay out of both lists; /stats carries the same
// health next to the lifecycle state.
func TestHealthzReportsDegradedAndFailed(t *testing.T) {
	reg := NewRegistry()
	defer reg.Close()
	if _, err := reg.Create(ScenarioConfig{ID: "healthy", Source: SourceSynth, Scale: "small", Shards: 2}); err != nil {
		t.Fatal(err)
	}
	// Garbage on disk passes create-time validation (the file exists)
	// and fails the replay's calendar scan — a terminal failure the
	// supervisor records instead of crashing on.
	bad := filepath.Join(t.TempDir(), "bad.mrt")
	if err := os.WriteFile(bad, []byte("this is not an MRT archive"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := reg.Create(ScenarioConfig{ID: "broken", Source: SourceMRT, Path: bad, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, "broken scenario to fail", func() bool {
		return s.Status().State == StateFailed
	})

	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()

	var hz struct {
		Status    string            `json:"status"`
		Scenarios int               `json:"scenarios"`
		Degraded  []string          `json:"degraded"`
		Failed    []string          `json:"failed"`
		Health    map[string]Health `json:"health"`
	}
	resp := getJSON(t, srv.Client(), srv.URL+"/healthz", &hz)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status %d; liveness must stay 200 even when degraded", resp.StatusCode)
	}
	if hz.Status != "degraded" || hz.Scenarios != 2 {
		t.Fatalf("healthz = %+v, want status degraded over 2 scenarios", hz)
	}
	if len(hz.Failed) != 1 || hz.Failed[0] != "broken" {
		t.Fatalf("failed list = %v, want [broken]", hz.Failed)
	}
	if len(hz.Degraded) != 0 {
		t.Fatalf("degraded list = %v; a failed scenario belongs in failed, not degraded", hz.Degraded)
	}
	if h, ok := hz.Health["broken"]; !ok || h.Supervisor.OK || h.Supervisor.Detail == "" {
		t.Fatalf("health[broken] = %+v, want supervisor not-OK with detail", h)
	}
	if h, ok := hz.Health["healthy"]; !ok || !h.OK {
		t.Fatalf("health[healthy] = %+v, want OK", h)
	}

	var stats map[string]any
	getJSON(t, srv.Client(), srv.URL+"/scenarios/broken/stats", &stats)
	if stats["state"] != "failed" {
		t.Fatalf(`stats state = %v, want "failed"`, stats["state"])
	}
	sh, _ := stats["health"].(map[string]any)
	if sh == nil || sh["ok"] != false {
		t.Fatalf("stats health = %v, want ok=false", stats["health"])
	}
}

// Over-limit creates get the unified error envelope — a JSON error with
// the subsystem that refused — plus a Retry-After hint, not a bare 429.
func TestCreateLimitErrorEnvelope(t *testing.T) {
	reg := NewRegistry()
	reg.Limits = Limits{MaxScenarios: 1}
	defer reg.Close()
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()

	resp, _ := postJSON(t, srv.Client(), srv.URL+"/scenarios",
		map[string]any{"id": "one", "source": "synth", "scale": "small", "shards": 2})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("first create: status %d", resp.StatusCode)
	}
	resp, body := postJSON(t, srv.Client(), srv.URL+"/scenarios",
		map[string]any{"id": "two", "source": "synth", "scale": "small", "shards": 2})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit create: status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want %q", got, "1")
	}
	msg, _ := body["error"].(string)
	if msg == "" {
		t.Fatalf("429 body %v carries no error message", body)
	}
	if body["subsystem"] != "limits" {
		t.Fatalf(`429 subsystem = %v, want "limits"`, body["subsystem"])
	}
}
