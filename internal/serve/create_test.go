package serve

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"moas/internal/stream"
	"moas/internal/vfs"
)

// unrestorable is a checkpoint create whose engine image fails to
// restore (version 0), so any error other than the restore's proves the
// create was refused before it got that far.
func unrestorable(id string) ScenarioConfig {
	return ScenarioConfig{ID: id, Source: SourceCheckpoint, Checkpoint: &ScenarioCheckpoint{
		Version: ScenarioCheckpointVersion,
		Config:  ScenarioConfig{Source: SourceSynth, Scale: "small"},
		Engine:  &stream.Checkpoint{},
	}}
}

// TestCreateNamesBeforeBuilding: a create under a taken ID, or over the
// scenario limit, is refused before anything is built — a checkpoint
// create does not even try to restore its image.
func TestCreateNamesBeforeBuilding(t *testing.T) {
	reg := NewRegistry()
	reg.Limits.MaxScenarios = 2
	defer reg.Close()
	if _, err := reg.Create(unrestorable("fresh")); err == nil || !strings.Contains(err.Error(), "restore checkpoint") {
		t.Fatalf("create of an unrestorable image under a free ID: %v, want the restore error", err)
	}
	if _, err := reg.Create(ScenarioConfig{ID: "x", Source: SourceSynth, Scale: "small", Shards: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create(unrestorable("x")); !errors.Is(err, ErrScenarioExists) {
		t.Fatalf("checkpoint create under a taken ID: %v, want ErrScenarioExists", err)
	}
	if _, err := reg.Create(ScenarioConfig{ID: "y", Source: SourceSynth, Scale: "small", Shards: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create(unrestorable("z")); !errors.Is(err, ErrTooManyScenarios) {
		t.Fatalf("checkpoint create over the limit: %v, want ErrTooManyScenarios", err)
	}
	if n := len(reg.List()); n != 2 {
		t.Fatalf("%d scenarios hosted, want 2", n)
	}
}

// TestCreateRace: concurrent creates of one ID publish exactly one
// scenario; while a create is still building, its ID is taken yet nothing
// is visible; and a Delete during the build makes that create fail
// instead of publishing a deleted scenario.
func TestCreateRace(t *testing.T) {
	reg := NewRegistry()
	defer reg.Close()
	cfg := ScenarioConfig{ID: "dup", Source: SourceSynth, Scale: "small", Shards: 2}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for range cap(errs) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := reg.Create(cfg)
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	won := 0
	for err := range errs {
		switch {
		case err == nil:
			won++
		case !errors.Is(err, ErrScenarioExists):
			t.Fatalf("racing create: %v", err)
		}
	}
	if won != 1 || len(reg.List()) != 1 {
		t.Fatalf("%d racing creates succeeded, %d scenarios hosted; want 1 and 1", won, len(reg.List()))
	}

	// Slow the build down: the episode log's directory is made slowly.
	slow := vfs.NewFaulty(nil)
	slow.AddFault(vfs.Fault{Op: vfs.OpMkdir, Path: "slow", Delay: 300 * time.Millisecond})
	reg.EpisodeDir, reg.EpisodeFS = t.TempDir(), slow
	created := make(chan error, 1)
	go func() {
		_, err := reg.Create(ScenarioConfig{ID: "slow", Source: SourceSynth, Scale: "small", Shards: 2})
		created <- err
	}()
	waitFor(t, 10*time.Second, "the reservation", func() bool {
		reg.mu.RLock()
		defer reg.mu.RUnlock()
		return reg.building["slow"] != nil
	})
	if reg.Get("slow") != nil || len(reg.List()) != 1 {
		t.Fatal("a scenario still building is visible")
	}
	if _, err := reg.Create(ScenarioConfig{ID: "slow", Source: SourceSynth, Scale: "small", Shards: 2}); !errors.Is(err, ErrScenarioExists) {
		t.Fatalf("create under an ID still building: %v, want ErrScenarioExists", err)
	}
	if !reg.Delete("slow") {
		t.Fatal("Delete of an ID still building reported no such scenario")
	}
	if err := <-created; err == nil {
		t.Fatal("a create whose ID was deleted during the build succeeded")
	}
	if reg.Get("slow") != nil || len(reg.List()) != 1 {
		t.Fatal("a create deleted during its build left a scenario behind")
	}
	if _, err := reg.Create(ScenarioConfig{ID: "slow", Source: SourceSynth, Scale: "small", Shards: 2}); err != nil {
		t.Fatalf("re-create after the failed build: %v", err)
	}
}

// TestCheckpointDownloadReadsThroughFS: GET /scenarios/{id}/checkpoint
// reads the file through the registry's filesystem, so a read fault on
// the checkpoint file fails the download instead of bypassing the seam.
func TestCheckpointDownloadReadsThroughFS(t *testing.T) {
	fs := vfs.NewFaulty(nil)
	reg := NewRegistry()
	reg.Durability = Durability{Dir: t.TempDir(), Interval: time.Hour, FS: fs}
	defer reg.Close()
	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()

	s, err := reg.Create(ScenarioConfig{ID: "dl", Source: SourceSynth, Scale: "small", Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 60*time.Second, "the replay to finish", func() bool { return s.Status().State == StateDone })
	if _, err := reg.CheckpointNow("dl"); err != nil {
		t.Fatal(err)
	}
	get := func() int {
		resp, err := srv.Client().Get(srv.URL + "/scenarios/dl/checkpoint")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get(); code != http.StatusOK {
		t.Fatalf("GET checkpoint: %d", code)
	}
	fs.AddFault(vfs.Fault{Op: vfs.OpRead, Path: checkpointFileExt})
	if code := get(); code != http.StatusInternalServerError {
		t.Fatalf("GET checkpoint under a read fault: %d, want 500", code)
	}
}
