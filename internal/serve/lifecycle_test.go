package serve

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"moas/internal/stream"
)

// TestScenarioTransitions enumerates every (state, verb) pair against
// the table the lifecycle methods consult: the moves listed here are
// legal and land where stated, every other pair is refused and leaves
// the state alone, and a checkpoint in progress refuses exactly the
// verbs that would wake the replay.
func TestScenarioTransitions(t *testing.T) {
	states := []State{StateCreated, StateRunning, StatePaused, StateDone, StateFailed}
	verbs := map[verb]string{
		verbStart: "start", verbPause: "pause", verbResume: "resume",
		verbCheckpoint: "checkpoint", verbAutoCheckpoint: "auto-checkpoint",
		verbRunOK: "run-ok", verbRunFailed: "run-failed", verbRunStopped: "run-stopped",
	}
	type move struct {
		from State
		v    verb
	}
	legal := map[move]State{
		{StateCreated, verbStart}:     StateRunning,
		{StateRunning, verbPause}:     StatePaused,
		{StatePaused, verbResume}:     StateRunning,
		{StateRunning, verbRunOK}:     StateDone,
		{StatePaused, verbRunOK}:      StateDone,
		{StateRunning, verbRunFailed}: StateFailed,
		{StatePaused, verbRunFailed}:  StateFailed,
	}
	// Verbs that are legal somewhere without moving the state.
	for _, st := range []State{StateCreated, StatePaused, StateDone} {
		legal[move{st, verbCheckpoint}] = st
	}
	for _, st := range []State{StateRunning, StatePaused, StateDone} {
		legal[move{st, verbAutoCheckpoint}] = st
	}
	for _, st := range []State{StateRunning, StatePaused} {
		legal[move{st, verbRunStopped}] = st
	}
	if len(verbs) != len(transitions) {
		t.Fatalf("the table has %d verbs, the test knows %d", len(transitions), len(verbs))
	}
	wakes := map[verb]bool{verbStart: true, verbResume: true}

	for _, from := range states {
		for v, name := range verbs {
			s := &Scenario{cfg: ScenarioConfig{ID: "t"}, state: from}
			to, ok := legal[move{from, v}]
			err := s.move(v)
			switch {
			case ok && (err != nil || s.state != to):
				t.Errorf("%s --%s--> %s, err %v; want %s", from, name, s.state, err, to)
			case !ok && err == nil:
				t.Errorf("%s --%s--> %s accepted; want it refused", from, name, s.state)
			case !ok && s.state != from:
				t.Errorf("refused %s from %s moved the state to %s", name, from, s.state)
			}

			// The same move while a checkpoint images the engine.
			s = &Scenario{cfg: ScenarioConfig{ID: "t"}, state: from, checkpointing: 1}
			err = s.move(v)
			if wakes[v] {
				if err == nil || !strings.Contains(err.Error(), "checkpoint in progress") || s.state != from {
					t.Errorf("%s from %s during a checkpoint: err %v, state %s; want it refused", name, from, err, s.state)
				}
			} else if (err == nil) != ok {
				t.Errorf("%s from %s during a checkpoint: err %v; the exclusion must not change it", name, from, err)
			}
		}
	}

	// The refusal names the states the verb wants, in the wording the
	// HTTP 409 bodies have always had.
	s := &Scenario{cfg: ScenarioConfig{ID: "t"}, state: StateDone}
	if err := s.move(verbPause); err == nil || err.Error() != "scenario t is done, not running" {
		t.Errorf("pause of a done scenario: %v", err)
	}
	s.state = StateRunning
	if err := s.move(verbCheckpoint); err == nil || err.Error() != "scenario t is running, not created or paused or done" {
		t.Errorf("checkpoint of a running scenario: %v", err)
	}
}

// TestScenarioTransitionsLive drives a real scenario through the public
// methods with a checkpoint held in progress: Start and Resume are
// refused with the engine untouched, Pause is not, and shutdown waits
// the checkpoint out.
func TestScenarioTransitionsLive(t *testing.T) {
	reg := NewRegistry()
	defer reg.Close()
	s, err := reg.Create(ScenarioConfig{ID: "held", Source: SourceSynth, Scale: "small", Shards: 2, DaysPerSec: 50})
	if err != nil {
		t.Fatal(err)
	}
	hold := func(n int) {
		s.mu.Lock()
		s.checkpointing += n
		s.imaged.Broadcast()
		s.mu.Unlock()
	}
	hold(1)
	if err := s.Start(); err == nil || !strings.Contains(err.Error(), "checkpoint in progress") {
		t.Fatalf("Start during a checkpoint: %v", err)
	}
	hold(-1)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.Pause(); err != nil {
		t.Fatal(err)
	}
	hold(1)
	if err := s.Resume(); err == nil || !strings.Contains(err.Error(), "checkpoint in progress") {
		t.Fatalf("Resume during a checkpoint: %v", err)
	}
	if !s.Engine().Paused() {
		t.Fatal("a refused Resume opened the engine's gate")
	}
	deleted := make(chan struct{})
	go func() {
		reg.Delete("held")
		close(deleted)
	}()
	select {
	case <-deleted:
		t.Fatal("shutdown did not wait for the checkpoint in progress")
	case <-time.After(30 * time.Millisecond):
	}
	hold(-1)
	select {
	case <-deleted:
	case <-time.After(30 * time.Second):
		t.Fatal("shutdown never finished after the checkpoint ended")
	}
}

// TestSourceKinds drives every source kind through one input table:
// create-side validation (accepted configs with their defaults, default
// ID and description; rejected ones), and the same kind's check applied
// to a config embedded in a checkpoint — including the knob rules, which
// bind the effective source, not the request's "checkpoint".
func TestSourceKinds(t *testing.T) {
	dir := t.TempDir()
	mrtPath := filepath.Join(dir, "rrc00.updates.mrt.gz")
	if err := os.WriteFile(mrtPath, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	gone := filepath.Join(dir, "gone.mrt")

	kinds := []struct {
		source string
		live   bool
		// good is a valid create; wantID and wantDesc are what it derives.
		good     ScenarioConfig
		wantID   string
		wantDesc string
		// defaulted is checked on the normalized good config.
		defaulted func(c ScenarioConfig) bool
		// bad creates are refused.
		bad []ScenarioConfig
		// badEmbedded configs — hand-edited or stale checkpoint contents —
		// are refused by the same check on the restore side.
		badEmbedded []ScenarioConfig
	}{
		{
			source: SourceSynth, good: ScenarioConfig{}, wantID: "small", wantDesc: "synth scale small",
			defaulted: func(c ScenarioConfig) bool { return c.Source == SourceSynth && c.Scale == "small" },
			bad: []ScenarioConfig{
				{Source: SourceSynth, Scale: "galactic"},
				{Source: SourceSynth, Path: "/tmp/x"},
				{Source: SourceSynth, URL: "ws://h/"},
				{Source: SourceSynth, Listen: ":1"},
				{Source: SourceSynth, LocalAS: 7},
			},
			badEmbedded: []ScenarioConfig{{Source: SourceSynth, Scale: "galactic"}},
		},
		{
			source: SourceMRT, good: ScenarioConfig{Source: SourceMRT, Path: mrtPath},
			wantID: "rrc00.updates", wantDesc: "mrt file " + mrtPath,
			bad: []ScenarioConfig{
				{Source: SourceMRT},
				{Source: SourceMRT, Path: gone},
				{Source: SourceMRT, Path: dir},
				{Source: SourceMRT, Path: mrtPath, Scale: "small"},
			},
			// The file must still be reachable to resume mid-archive.
			badEmbedded: []ScenarioConfig{{Source: SourceMRT, Path: gone}, {Source: SourceMRT, Path: dir}, {Source: SourceMRT}},
		},
		{
			source: SourceRISLive, live: true, good: ScenarioConfig{Source: SourceRISLive, URL: "ws://feed.example/v1"},
			wantID: "rislive", wantDesc: "ris live feed ws://feed.example/v1",
			bad: []ScenarioConfig{
				{Source: SourceRISLive},
				{Source: SourceRISLive, URL: "https://feed.example/v1"},
				{Source: SourceRISLive, URL: "ws://h/", Path: mrtPath},
				{Source: SourceRISLive, URL: "ws://h/", DaysPerSec: 4},
			},
			badEmbedded: []ScenarioConfig{{Source: SourceRISLive, URL: "wss://h/"}, {Source: SourceRISLive}},
		},
		{
			source: SourceBGP, live: true, good: ScenarioConfig{Source: SourceBGP, Listen: "127.0.0.1:0"},
			wantID: "bgp", wantDesc: "bgp speaker on 127.0.0.1:0",
			defaulted: func(c ScenarioConfig) bool { return c.LocalAS == 64512 },
			bad: []ScenarioConfig{
				{Source: SourceBGP},
				{Source: SourceBGP, Listen: ":1", Scale: "small"},
				{Source: SourceBGP, Listen: ":1", URL: "ws://h/"},
				{Source: SourceBGP, Listen: ":1", DaysPerSec: 4},
			},
			badEmbedded: []ScenarioConfig{{Source: SourceBGP}},
		},
	}
	if len(kinds) != len(sourceKinds) {
		t.Fatalf("the table has %d kinds, the test covers %d", len(sourceKinds), len(kinds))
	}
	restoreOf := func(embedded, overrides ScenarioConfig) ScenarioConfig {
		overrides.Source = SourceCheckpoint
		overrides.Checkpoint = &ScenarioCheckpoint{
			Version: ScenarioCheckpointVersion, Config: embedded, Engine: &stream.Checkpoint{},
		}
		return overrides
	}
	for _, k := range kinds {
		kind := sourceKinds[k.source]
		if kind == nil || kind.live() != k.live {
			t.Fatalf("%s: kind %+v, want live=%v", k.source, kind, k.live)
		}
		if (kind.openArchive != nil) == (kind.openLive != nil) {
			t.Errorf("%s: want exactly one opener", k.source)
		}
		good := k.good
		if err := good.normalize(); err != nil {
			t.Errorf("%s: %+v rejected: %v", k.source, k.good, err)
			continue
		}
		if good.EventBuffer != 1024 || (k.defaulted != nil && !k.defaulted(good)) {
			t.Errorf("%s: defaults not applied: %+v", k.source, good)
		}
		if got := good.DefaultID(); got != k.wantID {
			t.Errorf("%s: default id %q, want %q", k.source, got, k.wantID)
		}
		if got := kind.describe(&good); got != k.wantDesc {
			t.Errorf("%s: description %q, want %q", k.source, got, k.wantDesc)
		}
		for _, bad := range k.bad {
			if err := bad.normalize(); err == nil {
				t.Errorf("%s: create %+v passed validation", k.source, bad)
			}
		}

		// Restore side: the normalized config, embedded in a checkpoint,
		// comes back as the effective config under the request's id and
		// knobs, still carrying the checkpoint for newScenario.
		good.ID = "orig"
		restored := restoreOf(good, ScenarioConfig{Shards: 3})
		if err := restored.normalize(); err != nil {
			t.Errorf("%s: restore of %+v rejected: %v", k.source, good, err)
			continue
		}
		want := good
		want.ID, want.Shards, want.Checkpoint = "", 3, restored.Checkpoint
		if restored != want || restored.Checkpoint == nil {
			t.Errorf("%s: restore resolved to %+v, want %+v", k.source, restored, want)
		}
		if got := restored.DefaultID(); got != "orig-restored" {
			t.Errorf("%s: restore default id %q", k.source, got)
		}
		for _, bad := range k.badEmbedded {
			r := restoreOf(bad, ScenarioConfig{})
			if err := r.normalize(); err == nil {
				t.Errorf("%s: checkpoint of %+v passed validation", k.source, bad)
			} else if !strings.HasPrefix(err.Error(), "checkpoint config: ") {
				t.Errorf("%s: checkpoint of %+v: error %q does not name the checkpoint", k.source, bad, err)
			}
		}
		// The source comes from the checkpoint; a request may not set it.
		for _, over := range []ScenarioConfig{{Scale: "small"}, {Path: mrtPath}, {URL: "ws://h/"}, {Listen: ":1"}, {LocalAS: 7}} {
			r := restoreOf(good, over)
			if err := r.normalize(); err == nil {
				t.Errorf("%s: restore request setting %+v passed validation", k.source, over)
			}
		}
		// A restore request's knobs are range-checked like a create's.
		for _, over := range []ScenarioConfig{{Shards: -1}, {EventBuffer: -1}} {
			r := restoreOf(good, over)
			if err := r.normalize(); err == nil {
				t.Errorf("%s: restore request setting %+v passed validation", k.source, over)
			}
		}
		// Pacing is a replay knob whichever way the scenario is created.
		paced := restoreOf(good, ScenarioConfig{DaysPerSec: 4})
		if err := paced.normalize(); (err != nil) != k.live {
			t.Errorf("%s: restore with days_per_sec: err %v, want refused=%v", k.source, err, k.live)
		}
	}

	// Kind-specific leftovers: the stress scale has no scenario spec but
	// is a valid synth scale, created and restored; a hand-edited embedded
	// bgp config gets the kind's defaults.
	stress := ScenarioConfig{Source: SourceSynth, Scale: ScaleStress}
	if err := stress.normalize(); err != nil || stress.DefaultID() != "stress" {
		t.Errorf("stress scale: %v, default id %q", err, stress.DefaultID())
	}
	restoredStress := restoreOf(stress, ScenarioConfig{})
	if err := restoredStress.normalize(); err != nil {
		t.Errorf("stress checkpoint config rejected: %v", err)
	}
	edited := restoreOf(ScenarioConfig{Source: SourceBGP, Listen: ":1", EventBuffer: 8}, ScenarioConfig{})
	if err := edited.normalize(); err != nil || edited.LocalAS != 64512 {
		t.Errorf("embedded bgp config without local_as: err %v, local_as %d", err, edited.LocalAS)
	}
	// An embedded ID is untrusted input too.
	hostile := restoreOf(ScenarioConfig{ID: "../x y", Source: SourceSynth, Scale: "small"}, ScenarioConfig{})
	if got := hostile.DefaultID(); got != "..xy-restored" {
		t.Errorf("default id of a hostile embedded id: %q", got)
	}
}

// TestRestoredStatusFields: a scenario recovered from disk reports the
// effective source's scale and path (as it always did url and listen),
// with source "checkpoint" marking it restored.
func TestRestoredStatusFields(t *testing.T) {
	archive := writeArchiveFile(t)
	dur := Durability{Dir: t.TempDir(), Interval: time.Hour}
	reg1 := NewRegistry()
	reg1.Durability = dur
	for _, cfg := range []ScenarioConfig{
		{ID: "m", Source: SourceMRT, Path: archive, Shards: 2, DaysPerSec: 40},
		{ID: "s", Source: SourceSynth, Scale: "small", Shards: 2, DaysPerSec: 40},
	} {
		s, err := reg1.Create(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		waitFor(t, 60*time.Second, cfg.ID+" mid-archive", func() bool { return s.Status().ClosedDays >= 2 })
	}
	reg1.Close() // the kill: the final checkpoints are all that survives

	reg2 := NewRegistry()
	reg2.Durability = dur
	defer reg2.Close()
	if n, err := reg2.Recover(); err != nil || n != 2 {
		t.Fatalf("recovered %d scenarios, err %v; want 2", n, err)
	}
	m, s := reg2.Get("m").Status(), reg2.Get("s").Status()
	if m.Source != SourceCheckpoint || m.Path != archive || m.Scale != "" || m.DaysPerSec != 40 {
		t.Errorf("recovered mrt scenario status: %+v", m)
	}
	if s.Source != SourceCheckpoint || s.Scale != "small" || s.Path != "" || s.DaysPerSec != 40 {
		t.Errorf("recovered synth scenario status: %+v", s)
	}
}
