package serve

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"moas/internal/epilog"
	"moas/internal/source"
	"moas/internal/stream"
	"moas/internal/supervise"
)

// State is a scenario's lifecycle position.
type State int32

const (
	// StateCreated: registered, engine queryable (empty), replay not
	// started.
	StateCreated State = iota
	// StateRunning: replay in flight (including the source build, which
	// for the full synth scenario takes a while).
	StateRunning
	// StatePaused: replay parked at a record boundary; queries see a
	// settled view.
	StatePaused
	// StateDone: archive exhausted; the engine stays queryable forever.
	StateDone
	// StateFailed: the source build or replay errored; see Status().Error.
	StateFailed
)

var stateNames = [...]string{"created", "running", "paused", "done", "failed"}

// String names the state for JSON and logs.
func (s State) String() string {
	if s < 0 || int(s) >= len(stateNames) {
		return "unknown"
	}
	return stateNames[s]
}

// MarshalText renders the state by name in JSON documents.
func (s State) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// verb is something that happens to a scenario: an operator request, a
// checkpoint, the replay goroutine's exit, or the registry's shutdown.
type verb int

const (
	verbStart verb = iota
	verbPause
	verbResume
	// verbCheckpoint is the operator's checkpoint: the scenario must
	// already be settled. verbAutoCheckpoint parks a running replay
	// itself and releases it afterwards.
	verbCheckpoint
	verbAutoCheckpoint
	// The replay goroutine's three exits: archive exhausted, error, and
	// stop requested by shutdown.
	verbRunOK
	verbRunFailed
	verbRunStopped
)

// transitions is the whole lifecycle: transitions[verb][state] is the
// state the verb leaves a scenario in, and a missing entry is a refused
// move. Checkpoints change no state; their rows say where they are legal.
// Shutdown is legal in every state and is not a verb: it waits out
// checkpoints instead (shutdown).
var transitions = map[verb]map[State]State{
	verbStart:          {StateCreated: StateRunning},
	verbPause:          {StateRunning: StatePaused},
	verbResume:         {StatePaused: StateRunning},
	verbCheckpoint:     {StateCreated: StateCreated, StatePaused: StatePaused, StateDone: StateDone},
	verbAutoCheckpoint: {StateRunning: StateRunning, StatePaused: StatePaused, StateDone: StateDone},
	verbRunOK:          {StateRunning: StateDone, StatePaused: StateDone},
	verbRunFailed:      {StateRunning: StateFailed, StatePaused: StateFailed},
	verbRunStopped:     {StateRunning: StateRunning, StatePaused: StatePaused},
}

// Scenario is one hosted replay: an engine, its event hub, and the replay
// goroutine's controls. All methods are safe for concurrent use.
type Scenario struct {
	// cfg is the effective config: what normalize made of the create
	// request. Its source is a kind of sourceKinds, never "checkpoint" —
	// a restored scenario has the checkpointed scenario's source.
	cfg ScenarioConfig
	// restored marks a scenario created from a checkpoint.
	restored bool
	eng      *stream.Engine
	hub      *Hub
	// epi is the scenario's append-only episode log under
	// EpisodeDir/<id>/ (nil when the registry's EpisodeDir is unset).
	epi  *epilog.Log
	logf func(format string, args ...any)

	totalDays  atomic.Int64 // 0 until the source is open and counted
	closedDays atomic.Int64

	mu    sync.Mutex
	state State
	err   error
	// ckErr is the most recent auto-checkpoint failure; nil while the
	// durability subsystem is healthy. Set and cleared by the
	// auto-checkpoint loop, reported through Health.
	ckErr error
	// restarts counts how many supervised restarts produced this
	// scenario (stamped by the registry's restart path; 0 for a
	// scenario that never crashed).
	restarts int
	// onFailure, when non-nil, is invoked with the scenario ID after a
	// terminal failure is recorded. The registry hooks its restart
	// policy here; it runs on its own goroutine because the restart
	// path shuts this scenario down (which waits on s.done).
	onFailure func(id string)
	// checkpointing counts checkpoints imaging the engine; while
	// non-zero, move refuses the verbs that would wake the replay, so the
	// engine stays settled, yet Status and List remain responsive because
	// the imaging itself runs outside s.mu. A counter, not a bool:
	// concurrent checkpoints must each hold the exclusion to the end.
	checkpointing int
	// imaged is signalled (on s.mu) whenever a checkpoint stops imaging;
	// shutdown waits on it until checkpointing is zero.
	imaged  sync.Cond
	stop    chan struct{}
	stopped bool
	done    chan struct{} // closed when the replay goroutine exits
	// ckLoopDone, when non-nil, is closed by the auto-checkpoint loop on
	// exit; shutdown waits on it so a loop iteration cannot write a
	// checkpoint file after Delete removed the scenario's directory.
	ckLoopDone chan struct{}
}

// newScenario builds a scenario for registry r, not yet published, from
// a normalized config whose ID the registry has reserved. One that still
// carries a checkpoint is a restore: the engine starts from the image,
// the hub continues its id-space and the replay resumes mid-archive at
// the engine's own cursor.
func newScenario(cfg ScenarioConfig, r *Registry) (*Scenario, error) {
	var epi *epilog.Log
	if r.EpisodeDir != "" {
		var err error
		if epi, err = epilog.Open(filepath.Join(r.EpisodeDir, cfg.ID), epilog.Options{FS: r.EpisodeFS}); err != nil {
			return nil, fmt.Errorf("serve: open episode log: %w", err)
		}
	}
	ring := r.Limits.EventRing
	if ring <= 0 {
		ring = DefaultEventRing
	}
	hub := NewHub(ring, r.Limits.MaxSubscribers)
	live := sourceKinds[cfg.Source].live()
	maxAttrs := cfg.MaxAttrs
	switch {
	case maxAttrs == 0 && live:
		maxAttrs = DefaultLiveMaxAttrs
	case maxAttrs < 0:
		maxAttrs = 0 // engine convention: 0 = unbounded
	}
	engCfg := stream.Config{
		Shards:           cfg.Shards,
		HistoryLimit:     cfg.History,
		MaxDistinctAttrs: maxAttrs,
		OnEvent:          hub.Publish,
		EpisodeLog:       epi,
	}
	// The engine will hold the live state; keeping the decoded image in
	// the config would double a restored scenario's resident memory.
	ck := cfg.Checkpoint
	cfg.Checkpoint = nil
	s := &Scenario{
		cfg:      cfg,
		restored: ck != nil,
		logf:     r.logf,
		hub:      hub,
		epi:      epi,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	s.imaged.L = &s.mu
	if ck != nil {
		hub.startFrom(ck.LastEventID)
		eng, err := stream.NewFromCheckpoint(engCfg, ck.Engine)
		if err != nil {
			hub.Close()
			if epi != nil {
				epi.Close()
			}
			return nil, fmt.Errorf("restore checkpoint: %w", err)
		}
		s.eng = eng
		s.totalDays.Store(int64(ck.TotalDays))
		s.closedDays.Store(int64(ck.DaysClosed))
	} else {
		s.eng = stream.New(engCfg)
	}
	return s, nil
}

// ID returns the scenario's registry key, reserved by Registry.Create
// before the scenario was built.
func (s *Scenario) ID() string { return s.cfg.ID }

// Engine exposes the live engine (queries only; the replay goroutine owns
// the feed side).
func (s *Scenario) Engine() *stream.Engine { return s.eng }

// Hub exposes the scenario's event fan-out.
func (s *Scenario) Hub() *Hub { return s.hub }

// EpisodeLog exposes the scenario's append-only episode log, or nil when
// the registry runs without one. Queries only; the engine's shard
// workers own the append side.
func (s *Scenario) EpisodeLog() *epilog.Log { return s.epi }

// move makes verb v's transition, or refuses it: from a state that has
// no entry in v's row, and — for the verbs that wake the replay — while a
// checkpoint is imaging the engine without s.mu, which waking would
// tear. Every lifecycle change goes through it. Callers hold s.mu.
func (s *Scenario) move(v verb) error {
	if s.checkpointing > 0 && (v == verbStart || v == verbResume) {
		return fmt.Errorf("scenario %s: checkpoint in progress", s.ID())
	}
	to, ok := transitions[v][s.state]
	if !ok {
		return fmt.Errorf("scenario %s is %s, not %s", s.ID(), s.state, legalFrom(v))
	}
	s.state = to
	return nil
}

// legalFrom names the states v's row admits: "created or paused or done".
func legalFrom(v verb) string {
	var names []string
	for from := range State(len(stateNames)) {
		if _, ok := transitions[v][from]; ok {
			names = append(names, from.String())
		}
	}
	return strings.Join(names, " or ")
}

// Start launches the replay goroutine. Only valid in state created.
func (s *Scenario) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.move(verbStart); err != nil {
		return err
	}
	go s.run()
	return nil
}

// Pause parks the replay at its next record boundary. Only valid in state
// running. The engine settles (all shards drained) before parking, so a
// paused scenario serves a stable view.
func (s *Scenario) Pause() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.move(verbPause); err != nil {
		return err
	}
	s.eng.Pause()
	s.logf("scenario %s: paused", s.ID())
	return nil
}

// Resume releases a paused replay.
func (s *Scenario) Resume() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.move(verbResume); err != nil {
		return err
	}
	s.eng.Resume()
	s.logf("scenario %s: resumed", s.ID())
	return nil
}

// Checkpoint serializes the scenario's complete state so it can be
// resumed later (POST /scenarios with source "checkpoint"), in this
// process or another with access to the same source. The scenario must
// be settled: created (never started), paused — Checkpoint waits briefly
// for the replay to actually park — or done. A running scenario must be
// paused first.
func (s *Scenario) Checkpoint() (*ScenarioCheckpoint, error) {
	return s.settleAndImage(verbCheckpoint)
}

// AutoCheckpoint serializes the scenario without an operator in the
// loop: paused and done scenarios checkpoint directly, and a running one
// is transparently parked at its next record boundary, checkpointed, and
// released — the public state stays "running" throughout, so operators
// and dashboards never see the flicker. Created and failed scenarios,
// and a running one whose source is not open yet, return (nil, nil):
// there is nothing worth persisting.
func (s *Scenario) AutoCheckpoint() (*ScenarioCheckpoint, error) {
	return s.settleAndImage(verbAutoCheckpoint)
}

// parkDeadline bounds how long a checkpoint waits for the replay to park.
const parkDeadline = 5 * time.Second

// settleAndImage is the one checkpoint path: wait until the engine is
// settled — no replay in flight (created; done: run closed and drained
// the engine) or the replay parked, which means every shard is drained —
// and image it. Under verbAutoCheckpoint a running replay is asked to
// park first; the gate is engine-level, so the lifecycle state is
// untouched. The wait ends when the engine signals its park, the replay
// goroutine exits or the deadline passes, and the state is judged again
// after it: a scenario that is paused, finishes or fails while the wait
// is on is judged by its new state.
func (s *Scenario) settleAndImage(v verb) (*ScenarioCheckpoint, error) {
	deadline := time.After(parkDeadline)
	s.mu.Lock()
	defer s.mu.Unlock()
	for late := false; ; {
		if err := s.move(v); err != nil {
			if v == verbAutoCheckpoint {
				err = nil // created, failed: nothing worth persisting
			}
			return nil, err
		}
		switch {
		case s.stopped:
			return nil, fmt.Errorf("scenario %s: shut down during checkpoint", s.ID())
		case s.state == StateRunning && s.totalDays.Load() == 0:
			// The replay goroutine is still building/scanning its source
			// and cannot park, and there is no consumed state to save.
			return nil, nil
		case s.state == StateCreated || s.state == StateDone || s.eng.Parked():
			// Image outside the lock so Status/List stay live; the count
			// keeps Start/Resume/shutdown out until the image is complete.
			s.checkpointing++
			s.mu.Unlock()
			ck := s.image()
			s.mu.Lock()
			s.checkpointing--
			s.imaged.Broadcast()
			s.release()
			return ck, nil
		case late:
			s.release()
			return nil, fmt.Errorf("scenario %s: replay did not park in time", s.ID())
		}
		// Running or paused, not parked yet: a paused scenario's request
		// is already pending, and Pause returns its channel.
		parked := s.eng.Pause()
		s.mu.Unlock()
		select {
		case <-parked:
		case <-s.done:
		case <-deadline:
			late = true
		}
		s.mu.Lock()
	}
}

// release reopens the gate an auto-checkpoint closed, once no checkpoint
// is imaging any more — unless the scenario was operator-paused or shut
// down meanwhile; their transition owns the gate now (Resume on an
// engine that is not paused is a no-op either way).
func (s *Scenario) release() {
	if s.checkpointing == 0 && s.state == StateRunning && !s.stopped {
		s.eng.Resume()
	}
}

// image builds the checkpoint over a settled engine; the caller holds the
// checkpointing count (not s.mu) to exclude transitions.
func (s *Scenario) image() *ScenarioCheckpoint {
	cfg := s.cfg
	cfg.Start = false
	return &ScenarioCheckpoint{
		Version:     ScenarioCheckpointVersion,
		Config:      cfg,
		TotalDays:   int(s.totalDays.Load()),
		DaysClosed:  int(s.closedDays.Load()),
		LastEventID: s.hub.Stats().LastID,
		Engine:      s.eng.Checkpoint(),
	}
}

// shutdown aborts any in-flight replay (waking a paused one), closes the
// hub so SSE handlers end, and waits for the replay goroutine to exit.
// Called by Registry.Delete.
func (s *Scenario) shutdown() {
	s.mu.Lock()
	// Shutdown is legal in every state, but must not wake an engine a
	// checkpoint is imaging. Checkpoints are bounded, so wait them out.
	for s.checkpointing > 0 {
		s.imaged.Wait()
	}
	if !s.stopped {
		s.stopped = true
		close(s.stop)
	}
	started := s.state != StateCreated
	s.eng.Resume()
	s.mu.Unlock()
	if s.ckLoopDone != nil {
		<-s.ckLoopDone // no checkpoint writes may outlive the scenario
	}
	s.hub.Close()
	if started {
		<-s.done // run() closes the engine on its way out
	} else {
		s.eng.Close() // stop the shard workers of a never-started engine
	}
	if s.epi != nil {
		// After the engine: no shard worker is left to append, so the
		// final segment seals with every episode on disk.
		if err := s.epi.Close(); err != nil {
			s.logf("scenario %s: closing episode log: %v", s.ID(), err)
		}
	}
}

// run is the replay goroutine: open the source, stream it through the
// engine, record the terminal state. The replay runs under supervise,
// so a panic in scenario-level code (source build, calendar scan) joins
// the engine's own contained worker panics in transitioning this one
// scenario to failed instead of crashing the process.
func (s *Scenario) run() {
	defer close(s.done)
	start := time.Now()
	err := supervise.Run("scenario replay", func() error { return s.replay() })
	s.mu.Lock()
	s.eng.Close()
	// The moves below are never refused: only Start leads here, and until
	// this exit only pause and resume move the state, between running and
	// paused.
	var failed bool
	switch {
	case err == stream.ErrReplayStopped:
		// Deleted mid-replay; the scenario is already out of the registry.
		_ = s.move(verbRunStopped)
	case err != nil:
		_ = s.move(verbRunFailed)
		s.err, failed = err, true
		s.logf("scenario %s: failed: %v", s.ID(), err)
	default:
		_ = s.move(verbRunOK)
		st := s.eng.Stats()
		s.logf("scenario %s: replay complete in %s: %d updates, %d conflicts ever, %d still active",
			s.ID(), time.Since(start).Round(time.Millisecond),
			st.Messages, st.TotalConflicts, st.ActiveConflicts)
	}
	onFail := s.onFailure
	s.mu.Unlock()
	if failed && onFail != nil {
		// On its own goroutine: the registry's restart path shuts this
		// scenario down, which waits for run's deferred done close.
		go onFail(s.ID())
	}
}

// replay opens the scenario's source through its kind and feeds it
// through the engine: a live feed runs continuously, an archive replays
// its calendar from the engine's cursor — mid-archive for a restore.
func (s *Scenario) replay() error {
	kind := sourceKinds[s.cfg.Source]
	if kind.live() {
		// -1 is the "endless calendar" sentinel: the status JSON renders it
		// so dashboards can tell a live feed from a source not yet opened,
		// and the auto-checkpoint's not-yet-open guard (== 0) admits live
		// scenarios. Delivery gaps — transport loss on the RIS client,
		// session drops on the BGP speaker — surface as SSE gap events on
		// the scenario's hub.
		s.totalDays.Store(-1)
		src, err := kind.openLive(&s.cfg, s.eng.Interner(), s.hub.PublishGap)
		if err != nil {
			return err
		}
		// Run closes the source itself on Stop; this covers error exits.
		defer src.Close()
		return s.eng.Run(src, &stream.RunOptions{
			Stop:       s.stop,
			OnDayClose: func(int) { s.closedDays.Add(1) },
		})
	}
	src, cal, err := kind.openArchive(&s.cfg)
	if err != nil {
		return err
	}
	defer src.Close()

	s.totalDays.Store(int64(len(cal.Days)))
	var interval time.Duration
	if s.cfg.DaysPerSec > 0 {
		interval = time.Duration(float64(time.Second) / s.cfg.DaysPerSec)
	}
	opts := &stream.ReplayOptions{
		Stop: s.stop,
		OnDayClose: func(day int) {
			s.closedDays.Add(1)
			// The pacing sleep must wake early on stop (the gate aborts at
			// the next record boundary) and on a pause request — otherwise
			// a slow pacing interval would keep a "paused" replay from
			// parking for up to a whole day's sleep, and Checkpoint's
			// bounded park wait would time out on a legitimate pause.
			for end := time.Now().Add(interval); time.Now().Before(end) && !s.eng.Paused(); {
				select {
				case <-time.After(min(time.Until(end), 50*time.Millisecond)):
				case <-s.stop:
					return
				}
			}
		},
	}
	return s.eng.Replay(src, cal, opts)
}

// SubsystemHealth is one subsystem's degradation flag: OK false means
// the subsystem is impaired but the scenario is still ingesting and
// serving (graceful degradation), with Detail saying why.
type SubsystemHealth struct {
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// Health is a scenario's per-subsystem degradation snapshot: the feed
// transport, the durability (auto-checkpoint) writer, the episode log,
// and the supervisor (panic containment / restart) state. OK is the
// conjunction; /healthz and the stats endpoints surface it.
type Health struct {
	OK         bool            `json:"ok"`
	Feed       SubsystemHealth `json:"feed"`
	Checkpoint SubsystemHealth `json:"checkpoint"`
	EpisodeLog SubsystemHealth `json:"episode_log"`
	Supervisor SubsystemHealth `json:"supervisor"`
	// Restarts counts supervised restarts that produced this scenario
	// instance (restart policy; 0 for a scenario that never crashed).
	Restarts int `json:"restarts,omitempty"`
}

// Health snapshots the scenario's subsystem health.
func (s *Scenario) Health() Health {
	s.mu.Lock()
	state, serr, ckErr, restarts := s.state, s.err, s.ckErr, s.restarts
	s.mu.Unlock()
	h := Health{
		Feed:       SubsystemHealth{OK: true},
		Checkpoint: SubsystemHealth{OK: true},
		EpisodeLog: SubsystemHealth{OK: true},
		Supervisor: SubsystemHealth{OK: true},
		Restarts:   restarts,
	}
	if fs := s.eng.SourceStatus(); fs != nil && !fs.Connected {
		h.Feed.OK = false
		h.Feed.Detail = "disconnected"
		if fs.LastError != "" {
			h.Feed.Detail = fs.LastError
		}
	}
	if ckErr != nil {
		h.Checkpoint.OK = false
		h.Checkpoint.Detail = ckErr.Error()
	}
	if s.epi != nil {
		if eh := s.epi.Health(); eh.Degraded {
			h.EpisodeLog.OK = false
			h.EpisodeLog.Detail = fmt.Sprintf("%s (%d pending, %d lost)", eh.Error, eh.Pending, eh.Lost)
		}
	}
	if state == StateFailed {
		h.Supervisor.OK = false
		if serr != nil {
			h.Supervisor.Detail = serr.Error()
		}
	}
	h.OK = h.Feed.OK && h.Checkpoint.OK && h.EpisodeLog.OK && h.Supervisor.OK
	return h
}

// Status is a scenario lifecycle snapshot, and — marshalled — the status
// document of the create, list, detail and transition endpoints.
type Status struct {
	ID string `json:"id"`
	// Source is the effective source, or "checkpoint" for a restored
	// scenario; Scale, Path, URL and Listen describe the effective source
	// either way.
	Source     string  `json:"source"`
	Scale      string  `json:"scale,omitempty"`
	Path       string  `json:"path,omitempty"`
	URL        string  `json:"url,omitempty"`
	Listen     string  `json:"listen,omitempty"`
	State      State   `json:"state"`
	Error      string  `json:"error,omitempty"`
	DaysPerSec float64 `json:"days_per_sec,omitempty"`
	// TotalDays is 0 until the source is open and -1 for live sources:
	// the calendar never ends.
	TotalDays  int `json:"total_days"`
	ClosedDays int `json:"closed_days"`
	// Feed is the live source's connection state (nil unless a live run
	// is in flight).
	Feed *source.Status `json:"feed,omitempty"`
	// Health is the per-subsystem degradation snapshot.
	Health Health `json:"health"`
	HubStats
}

// Status snapshots the scenario.
func (s *Scenario) Status() Status {
	s.mu.Lock()
	state, err := s.state, s.err
	s.mu.Unlock()
	st := Status{
		ID:         s.cfg.ID,
		Source:     s.cfg.Source,
		Scale:      s.cfg.Scale,
		Path:       s.cfg.Path,
		URL:        s.cfg.URL,
		Listen:     s.cfg.Listen,
		State:      state,
		DaysPerSec: s.cfg.DaysPerSec,
		TotalDays:  int(s.totalDays.Load()),
		ClosedDays: int(s.closedDays.Load()),
		Feed:       s.eng.SourceStatus(),
		Health:     s.Health(),
		HubStats:   s.hub.Stats(),
	}
	if s.restored {
		st.Source = SourceCheckpoint
	}
	if err != nil {
		st.Error = err.Error()
	}
	return st
}
