// chaos.go is the fault-injection leg of the differential harness: it
// replays one synth workload through the full serve stack (registry,
// scenario lifecycle, auto-checkpoint store, episode log) while a
// vfs.Faulty disk injects deterministic failure schedules — ENOSPC with
// torn writes under the episode log, fsync failure under the checkpoint
// store, a panic inside a shard worker's append — and requires that the
// process never dies, that every degraded health flag clears after the
// disk heals, that the episode readback and conflict registry still
// match generated ground truth exactly, and that a supervised
// restart-from-checkpoint finishes with a final checkpoint byte-for-byte
// identical to an uninterrupted run's.
package oracle

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"moas/internal/epilog"
	"moas/internal/serve"
	"moas/internal/source"
	"moas/internal/synth"
	"moas/internal/vfs"
)

// ChaosOptions tunes a chaos run. The zero value is the standard proof.
type ChaosOptions struct {
	// Dir hosts the run's archives, checkpoint stores and episode logs
	// (empty = a temporary directory, removed when the run ends).
	Dir string
	// Logf receives scenario lifecycle lines (nil = discarded).
	Logf func(format string, args ...any)
	// Pace is the replay speed in observed days per second (default 12).
	// Every leg — including the clean reference — runs paced so the
	// fault windows are wide enough to observe and the checkpointed
	// configs stay byte-identical across legs.
	Pace float64
	// Shards is each leg's engine shard count (default 4).
	Shards int
}

// ChaosReport summarizes a passing chaos run.
type ChaosReport struct {
	Episodes        int
	CheckpointBytes int
	Restarts        int
	Injected        uint64
	Legs            []string
}

// chaosID names the scenario every leg hosts; one fixed ID keeps the
// per-leg checkpoint envelopes comparable byte-for-byte.
const chaosID = "chaos"

// RunChaos executes the four chaos legs for cfg and returns a report,
// or an error naming the first claim that failed.
func RunChaos(cfg synth.Config, opts ChaosOptions) (*ChaosReport, error) {
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	pace := opts.Pace
	if pace <= 0 {
		pace = 12
	}
	shards := opts.Shards
	if shards <= 0 {
		shards = 4
	}
	root := opts.Dir
	if root == "" {
		dir, err := os.MkdirTemp("", "moas-chaos-")
		if err != nil {
			return nil, fmt.Errorf("oracle: chaos dir: %w", err)
		}
		defer os.RemoveAll(dir)
		root = dir
	}

	// One shared archive: every leg replays the same bytes, so their
	// final states are comparable and the truth log judges them all.
	gen, err := synth.NewStream(cfg)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, gen); err != nil {
		return nil, fmt.Errorf("oracle: chaos generate: %w", err)
	}
	archive := filepath.Join(root, "updates.mrt")
	if err := os.WriteFile(archive, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	truth := gen.Truth()
	days := gen.Days()
	if len(truth) == 0 {
		return nil, fmt.Errorf("oracle: chaos config produced no truth episodes")
	}
	expected := expectedRegistry(truth)
	rep := &ChaosReport{Episodes: len(truth)}

	scenarioCfg := serve.ScenarioConfig{
		ID:         chaosID,
		Source:     serve.SourceMRT,
		Path:       archive,
		Shards:     shards,
		DaysPerSec: pace,
	}
	newRegistry := func(leg string, ckFS, epiFS vfs.FS, interval time.Duration, rp serve.RestartPolicy) *serve.Registry {
		reg := serve.NewRegistry()
		reg.Logf = logf
		reg.Durability = serve.Durability{Dir: filepath.Join(root, leg, "ck"), Interval: interval, FS: ckFS}
		reg.EpisodeDir = filepath.Join(root, leg, "epi")
		reg.EpisodeFS = epiFS
		reg.RestartPolicy = rp
		return reg
	}
	// verify is the zero-corruption gate every leg must pass once done:
	// episode-log readback equals ground truth episode-for-episode, the
	// conflict registry equals the truth-derived aggregate, and every
	// health flag is clear. Runs before Registry.Close (which shuts the
	// scenario and its episode log down).
	verify := func(leg string, s *serve.Scenario) error {
		eps, err := s.EpisodeLog().Query(epilog.Query{Class: -1, AsOf: days - 1})
		if err != nil {
			return fmt.Errorf("oracle: %s: episode query: %w", leg, err)
		}
		if err := diffTruth(eps, truth); err != nil {
			return fmt.Errorf("%s: %w", leg, err)
		}
		if err := diffRegistry(leg, s.Engine().Registry().Conflicts(), expected); err != nil {
			return err
		}
		if h := s.Health(); !h.OK {
			return fmt.Errorf("oracle: %s: unhealthy after completion: %+v", leg, h)
		}
		return nil
	}
	// newestCheckpoint reads the leg's final on-disk checkpoint bytes
	// (rotation names sort, newest last; the final Registry.Close write
	// always carries the highest sequence).
	newestCheckpoint := func(leg string) ([]byte, error) {
		dir := filepath.Join(root, leg, "ck", chaosID)
		ents, err := os.ReadDir(dir)
		if err != nil {
			return nil, fmt.Errorf("oracle: %s: checkpoint dir: %w", leg, err)
		}
		var names []string
		for _, e := range ents {
			if e.Type().IsRegular() && !strings.HasPrefix(e.Name(), ".") {
				names = append(names, e.Name())
			}
		}
		if len(names) == 0 {
			return nil, fmt.Errorf("oracle: %s: no checkpoint files in %s", leg, dir)
		}
		sort.Strings(names)
		return os.ReadFile(filepath.Join(dir, names[len(names)-1]))
	}
	waitDone := func(leg string, reg *serve.Registry) (*serve.Scenario, error) {
		var s *serve.Scenario
		err := waitUntil(leg+" completion", 120*time.Second, func() bool {
			// Re-fetched every poll: the restart path replaces the
			// scenario value (and leaves a nil window mid-swap).
			s = reg.Get(chaosID)
			return s != nil && s.Status().State == serve.StateDone
		})
		return s, err
	}

	// Leg 1: reference — the same serve stack on a clean disk. Its truth
	// match anchors the harness, and its final checkpoint bytes are the
	// target the faulted legs must still hit exactly.
	var refCk []byte
	{
		reg := newRegistry("ref", nil, nil, time.Hour, serve.RestartPolicy{})
		s, err := reg.Create(scenarioCfg)
		if err != nil {
			return nil, fmt.Errorf("oracle: reference: %w", err)
		}
		if err := s.Start(); err != nil {
			return nil, err
		}
		if s, err = waitDone("reference", reg); err != nil {
			return nil, err
		}
		if err := verify("reference", s); err != nil {
			return nil, err
		}
		reg.Close()
		if refCk, err = newestCheckpoint("ref"); err != nil {
			return nil, err
		}
		rep.CheckpointBytes = len(refCk)
		rep.Legs = append(rep.Legs, "reference")
	}

	// Leg 2: ENOSPC under the episode log — a byte budget runs dry, the
	// write crossing it is torn. The scenario must degrade (not die),
	// keep serving truthful reads, heal when the disk does, and end with
	// zero lost episodes and the reference checkpoint.
	{
		epiFS := vfs.NewFaulty(nil)
		reg := newRegistry("enospc", nil, epiFS, time.Hour, serve.RestartPolicy{})
		s, err := reg.Create(scenarioCfg)
		if err != nil {
			return nil, fmt.Errorf("oracle: enospc: %w", err)
		}
		// Armed after Create (the log's header write must land; a disk
		// that was always full is a different, boring failure) and
		// before Start, so the schedule is deterministic.
		epiFS.SetWriteBudget(256)
		if err := s.Start(); err != nil {
			return nil, err
		}
		if err := waitUntil("enospc degradation", 60*time.Second, func() bool {
			return !s.Health().EpisodeLog.OK
		}); err != nil {
			return nil, err
		}
		epiFS.Heal()
		if err := waitUntil("enospc heal", 60*time.Second, func() bool {
			return s.Health().EpisodeLog.OK
		}); err != nil {
			return nil, err
		}
		if s, err = waitDone("enospc", reg); err != nil {
			return nil, err
		}
		if eh := s.EpisodeLog().Health(); eh.Lost != 0 || eh.Healed == 0 {
			return nil, fmt.Errorf("oracle: enospc: lost %d episodes, healed %d times; want 0 lost, >=1 heal", eh.Lost, eh.Healed)
		}
		if err := verify("enospc", s); err != nil {
			return nil, err
		}
		if epiFS.Injected() == 0 {
			return nil, fmt.Errorf("oracle: enospc: no faults fired; the leg proved nothing")
		}
		rep.Injected += epiFS.Injected()
		reg.Close()
		ck, err := newestCheckpoint("enospc")
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(ck, refCk) {
			return nil, fmt.Errorf("oracle: enospc: final checkpoint (%d bytes) differs from reference (%d bytes)", len(ck), len(refCk))
		}
		rep.Legs = append(rep.Legs, "episode-enospc")
	}

	// Leg 3: fsync failure under the checkpoint store — every durability
	// write fails at the sync. The checkpoint subsystem must degrade
	// while ingest continues, retry on its backoff, and un-degrade on
	// the first write that lands after the heal.
	{
		ckFS := vfs.NewFaulty(nil)
		reg := newRegistry("cksync", ckFS, nil, 100*time.Millisecond, serve.RestartPolicy{})
		s, err := reg.Create(scenarioCfg)
		if err != nil {
			return nil, fmt.Errorf("oracle: cksync: %w", err)
		}
		ckFS.AddFault(vfs.Fault{Op: vfs.OpSync})
		if err := s.Start(); err != nil {
			return nil, err
		}
		if err := waitUntil("checkpoint degradation", 60*time.Second, func() bool {
			return !s.Health().Checkpoint.OK
		}); err != nil {
			return nil, err
		}
		ckFS.Heal()
		if err := waitUntil("checkpoint heal", 60*time.Second, func() bool {
			return s.Health().Checkpoint.OK
		}); err != nil {
			return nil, err
		}
		if s, err = waitDone("cksync", reg); err != nil {
			return nil, err
		}
		if err := verify("cksync", s); err != nil {
			return nil, err
		}
		if ckFS.Injected() == 0 {
			return nil, fmt.Errorf("oracle: cksync: no faults fired; the leg proved nothing")
		}
		rep.Injected += ckFS.Injected()
		reg.Close()
		ck, err := newestCheckpoint("cksync")
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(ck, refCk) {
			return nil, fmt.Errorf("oracle: cksync: final checkpoint (%d bytes) differs from reference (%d bytes)", len(ck), len(refCk))
		}
		rep.Legs = append(rep.Legs, "checkpoint-fsync")
	}

	// Leg 4: a panic injected into a shard worker's episode append,
	// mid-run, after a pinned checkpoint. The panic must be contained
	// (scenario failed, process alive), the restart policy must restore
	// from the checkpoint, and the finished run must be indistinguishable
	// from one that never crashed: same episode readback (seq dedup
	// absorbs the re-emitted overlap), same registry, and a final
	// checkpoint byte-identical to the reference.
	{
		epiFS := vfs.NewFaulty(nil)
		rp := serve.RestartPolicy{
			Enabled: true,
			Backoff: source.Backoff{Base: time.Millisecond, Max: 10 * time.Millisecond},
		}
		reg := newRegistry("panic", nil, epiFS, time.Hour, rp)
		s, err := reg.Create(scenarioCfg)
		if err != nil {
			return nil, fmt.Errorf("oracle: panic: %w", err)
		}
		if err := s.Start(); err != nil {
			return nil, err
		}
		mid := days / 3
		if mid < 1 {
			mid = 1
		}
		if err := waitUntil("panic leg mid-run", 60*time.Second, func() bool {
			return s.Status().ClosedDays >= mid
		}); err != nil {
			return nil, err
		}
		// Pin the durable state the restart will restore from, then arm
		// exactly one panic on the next episode write.
		ckPath, err := reg.CheckpointNow(chaosID)
		if err != nil {
			return nil, fmt.Errorf("oracle: panic: pin checkpoint: %w", err)
		}
		logf("chaos: pinned %s, arming panic", ckPath)
		epiFS.AddFault(vfs.Fault{Op: vfs.OpWrite, Panic: true, Count: 1})
		cur, err := waitDone("panic", reg)
		if err != nil {
			return nil, err
		}
		restarts := cur.Health().Restarts
		if restarts != 1 {
			return nil, fmt.Errorf("oracle: panic: %d supervised restarts, want exactly 1 (did the fault fire? injected=%d)",
				restarts, epiFS.Injected())
		}
		if err := verify("panic", cur); err != nil {
			return nil, err
		}
		rep.Restarts = restarts
		rep.Injected += epiFS.Injected()
		reg.Close()
		ck, err := newestCheckpoint("panic")
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(ck, refCk) {
			return nil, fmt.Errorf("oracle: panic: final checkpoint (%d bytes) differs from reference (%d bytes): restart-from-checkpoint is not equivalent to an uninterrupted run", len(ck), len(refCk))
		}
		rep.Legs = append(rep.Legs, "panic-restart")
	}

	return rep, nil
}

// waitUntil polls cond until it holds or the timeout lapses. The chaos
// legs are paced replays, so every condition it waits on is on the
// order of the pacing interval, far under the timeout.
func waitUntil(what string, timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("oracle: chaos: timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}
