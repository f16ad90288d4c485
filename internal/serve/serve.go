// Package serve turns the single-replay streaming engine into a
// multi-scenario server: one process hosts N concurrent stream.Engine
// replays behind a scenario registry, each with its own lifecycle
// (create → start → pause/resume → done, deletable at any point), its own
// isolated conflict state, and its own SSE event hub. Scenarios are
// sourced from a synthesized archive (the scenario package builds it and
// the replay streams it through an io.Pipe, so the full-scale archive
// never materializes), from a real MRT BGP4MP file on disk
// (internal/collector opens it, the calendar is derived from the file's
// own timestamps), or from a live feed (internal/source: a RIS Live-style
// websocket client or a passive BGP speaker) running continuously with
// wall-clock day closes. The HTTP router prefixes every engine query path with
// /scenarios/{id}/ — delegating to internal/stream's handler unchanged —
// and adds the lifecycle POST endpoints plus the /events SSE stream the
// hub feeds. cmd/moasd is a thin main around NewRegistry + NewHandler.
package serve

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"moas/internal/source"
	"moas/internal/supervise"
	"moas/internal/vfs"
)

// Limits bounds what one moasd process will host, so a public deployment
// cannot be exhausted by POSTs or SSE connections. Zero values mean
// unlimited (subscribers) or the default (event ring).
type Limits struct {
	// MaxScenarios caps concurrently hosted scenarios; exceeding it makes
	// Create fail with ErrTooManyScenarios (HTTP 429).
	MaxScenarios int
	// MaxSubscribers caps concurrent SSE subscribers per scenario;
	// exceeding it makes Subscribe fail with ErrHubFull (HTTP 429).
	MaxSubscribers int
	// EventRing sizes each scenario's resume ring buffer — the events a
	// reconnecting SSE client can catch up on via Last-Event-ID without a
	// full resync (0 = DefaultEventRing).
	EventRing int
}

// DefaultEventRing is the per-scenario resume buffer used when
// Limits.EventRing is zero.
const DefaultEventRing = 1024

// maxCreateBytes caps the POST /scenarios request body. Create bodies can
// carry whole checkpoint files, base64-encoded, so without a cap the
// decoder would buffer arbitrarily large uploads before any limit is
// consulted: the cap is generous enough for full-scale checkpoints (a
// 1M-prefix, 2-vantage table's file is about 66 MiB, 88 MiB as base64),
// small enough that a burst of hostile uploads cannot OOM the daemon.
const maxCreateBytes = 256 << 20

// ErrTooManyScenarios is returned by Create when Limits.MaxScenarios is
// reached; the HTTP layer maps it to 429.
var ErrTooManyScenarios = errors.New("serve: scenario limit reached")

// ErrScenarioExists is returned by Create when the requested ID is
// taken. moasd's boot path checks for it so a restart whose flag
// scenarios were already recovered from checkpoints does not die.
var ErrScenarioExists = errors.New("serve: scenario already exists")

// RestartPolicy makes the registry restart a failed scenario from its
// newest on-disk checkpoint: the supervised analogue of a process
// supervisor's restart-on-crash, but per scenario and in-process.
// Requires durability (there is nothing to restart from otherwise).
// A scenario that keeps crashing hits Max and stays failed — the
// crash-loop cap that keeps a poisoned input from burning CPU forever.
type RestartPolicy struct {
	Enabled bool
	// Max caps consecutive restarts per scenario (0 = DefaultRestartMax).
	// Delete resets the count.
	Max int
	// Backoff paces restart attempts; zero uses source's defaults
	// (500ms base doubling to 30s). Consecutive restarts back off
	// exponentially with jitter.
	Backoff source.Backoff
}

// DefaultRestartMax is the per-scenario crash-loop cap when
// RestartPolicy.Max is zero.
const DefaultRestartMax = 3

func (p RestartPolicy) max() int {
	if p.Max <= 0 {
		return DefaultRestartMax
	}
	return p.Max
}

// Registry is the set of scenarios one moasd process hosts.
type Registry struct {
	// Logf, when non-nil, receives scenario lifecycle log lines (moasd
	// wires it to the standard logger; tests leave it nil).
	Logf func(format string, args ...any)

	// Limits bounds the registry; set it before serving traffic.
	Limits Limits

	// Durability enables crash-safe auto-checkpointing (durable.go); set
	// it before serving traffic and before Recover.
	Durability Durability

	// EpisodeDir, when non-empty, gives every scenario an append-only
	// episode log under EpisodeDir/<id>/ — the durable store behind the
	// /episodes history endpoints. Set it before serving traffic and
	// before Recover; empty disables episode logging.
	EpisodeDir string

	// EpisodeFS is the filesystem episode logs write through. Nil means
	// the real disk; the chaos oracle injects a vfs.Faulty.
	EpisodeFS vfs.FS

	// RestartPolicy, when enabled (and durability is on), restarts a
	// failed scenario from its newest checkpoint. Set before traffic.
	RestartPolicy RestartPolicy

	mu        sync.RWMutex
	scenarios map[string]*Scenario
	// building holds the IDs reserved by creates still building their
	// scenario, each keyed to its create's config.
	building map[string]*ScenarioConfig
	autoID   int
	closing  bool
	// restarts tracks per-scenario supervised-restart state (count and
	// backoff); cleared by Delete.
	restarts map[string]*restartState
}

// restartState is one scenario's crash-loop bookkeeping.
type restartState struct {
	count int
	bo    source.Backoff
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		scenarios: make(map[string]*Scenario),
		building:  make(map[string]*ScenarioConfig),
		restarts:  make(map[string]*restartState),
	}
}

func (r *Registry) logf(format string, args ...any) {
	if r.Logf != nil {
		r.Logf(format, args...)
	}
}

// Create validates cfg, fills defaults (including a derived ID when none
// is given) and registers a new scenario in state created. It does not
// start the replay; Scenario.Start does.
//
// The scenario is named before it is built: the limit and ID checks run
// first and reserve the ID, so a refused create builds nothing — no
// engine, no restored checkpoint, no episode log. The build runs outside
// the registry lock (a restore decodes a whole engine image), and the
// scenario is published only if its reservation survived it: a Delete or
// Close meanwhile makes the create shut down what it built and fail.
func (r *Registry) Create(cfg ScenarioConfig) (*Scenario, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if err := r.reserve(&cfg); err != nil {
		return nil, err
	}
	s, err := newScenario(cfg, r)
	r.mu.Lock()
	// The reservation is keyed to this call's cfg, so one a Delete removed
	// and another create re-made is not mistaken for this one.
	if r.building[cfg.ID] == &cfg {
		delete(r.building, cfg.ID)
	} else if err == nil {
		r.mu.Unlock()
		s.shutdown()
		return nil, fmt.Errorf("serve: scenario %q was deleted while it was being created", cfg.ID)
	}
	if err != nil {
		r.mu.Unlock()
		return nil, err
	}
	if r.RestartPolicy.Enabled && r.Durability.enabled() {
		// Wired before the scenario is reachable; runs on its own
		// goroutine after a terminal failure.
		s.onFailure = r.maybeRestart
	}
	if r.Durability.enabled() {
		// Assign before the scenario becomes reachable: shutdown() reads
		// ckLoopDone without a lock, so the write must happen-before any
		// Delete/Close can find the scenario in the map.
		s.ckLoopDone = make(chan struct{})
	}
	r.scenarios[cfg.ID] = s
	r.mu.Unlock()
	if s.ckLoopDone != nil {
		go func() {
			defer close(s.ckLoopDone)
			r.autoCheckpointLoop(s)
		}()
	}
	desc := sourceKinds[cfg.Source].describe(&cfg)
	if ck := cfg.Checkpoint; ck != nil {
		desc = fmt.Sprintf("checkpoint of %s at %d/%d days", desc, ck.DaysClosed, ck.TotalDays)
	}
	r.logf("scenario %s: created (%s)", s.ID(), desc)
	return s, nil
}

// reserve claims cfg's ID for the create that owns cfg: it refuses a
// create over the scenario limit (reservations count) or under a taken
// ID, and derives a free ID when cfg has none.
func (r *Registry) reserve(cfg *ScenarioConfig) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n, max := len(r.scenarios)+len(r.building), r.Limits.MaxScenarios; max > 0 && n >= max {
		return fmt.Errorf("%w: %d scenarios hosted (max %d)", ErrTooManyScenarios, n, max)
	}
	if cfg.ID == "" {
		cfg.ID = cfg.DefaultID()
		for r.taken(cfg.ID) {
			r.autoID++
			cfg.ID = fmt.Sprintf("%s-%d", cfg.DefaultID(), r.autoID)
		}
	}
	if r.taken(cfg.ID) {
		return fmt.Errorf("%w: %q", ErrScenarioExists, cfg.ID)
	}
	r.building[cfg.ID] = cfg
	return nil
}

// taken reports whether id names a hosted scenario or one being built.
// Callers hold r.mu.
func (r *Registry) taken(id string) bool {
	_, hosted := r.scenarios[id]
	_, building := r.building[id]
	return hosted || building
}

// storeFor returns the scenario's on-disk checkpoint store.
func (r *Registry) storeFor(id string) checkpointStore {
	return checkpointStore{
		dir:  filepath.Join(r.Durability.Dir, id),
		keep: r.Durability.keep(),
		fs:   r.Durability.fs(),
	}
}

// CheckpointNow synchronously persists the scenario into its on-disk
// checkpoint store, returning the written path. The chaos harness uses
// it to pin a known-good durable state before injecting faults;
// operators get the same effect out of band of the auto interval.
func (r *Registry) CheckpointNow(id string) (string, error) {
	if !r.Durability.enabled() {
		return "", errors.New("serve: durability disabled")
	}
	s := r.Get(id)
	if s == nil {
		return "", fmt.Errorf("serve: no scenario %q", id)
	}
	path, err := r.persist(s, "checkpoint")
	if err == nil && path == "" {
		err = fmt.Errorf("serve: scenario %s has nothing to checkpoint", id)
	}
	return path, err
}

// persist is the one way a checkpoint reaches disk: image the scenario
// (parking a running replay for the moment of the image), write the
// image into the scenario's store, log it as what. It returns "" and no
// error when the scenario has nothing worth persisting yet.
func (r *Registry) persist(s *Scenario, what string) (string, error) {
	ck, err := s.AutoCheckpoint()
	if err != nil || ck == nil {
		return "", err
	}
	path, err := r.storeFor(s.ID()).write(ck)
	if err != nil {
		return "", err
	}
	r.logf("scenario %s: %s at %d/%d days -> %s", s.ID(), what, ck.DaysClosed, ck.TotalDays, path)
	return path, nil
}

// autoCheckpointLoop periodically persists the scenario. Started by
// Create when durability is on; exits when the scenario shuts down.
// Ticks where the replay consumed no new records since the last
// successful write are skipped, so an idle (done or long-paused)
// scenario costs no I/O.
//
// A failed write degrades the checkpoint subsystem (Health reports it;
// the scenario keeps ingesting and serving) and the loop retries on a
// jittered backoff capped by the interval, un-degrading on the first
// write that lands. The whole attempt runs under supervise: a panic in
// the write path (a fault-injected filesystem, a serialization bug)
// degrades durability instead of killing the daemon.
func (r *Registry) autoCheckpointLoop(s *Scenario) {
	interval := r.Durability.interval()
	timer := time.NewTimer(interval)
	defer timer.Stop()
	retry := source.Backoff{Base: interval / 8, Max: interval}
	var written bool
	var lastRecords uint64
	for {
		select {
		case <-s.stop:
			return
		case <-timer.C:
		}
		// Read before the image: records consumed in between make the
		// next tick write once more, never skip.
		records := s.eng.Records()
		if written && records == lastRecords {
			timer.Reset(interval)
			continue
		}
		err := supervise.Run("auto-checkpoint", func() error {
			path, err := r.persist(s, "auto-checkpoint")
			if path != "" {
				written, lastRecords = true, records
			}
			return err
		})
		s.mu.Lock()
		wasDegraded := s.ckErr != nil
		s.ckErr = err
		s.mu.Unlock()
		if err != nil {
			r.logf("scenario %s: auto-checkpoint: %v (degraded, retrying)", s.ID(), err)
			timer.Reset(retry.Next())
			continue
		}
		if wasDegraded {
			r.logf("scenario %s: auto-checkpoint healed", s.ID())
		}
		retry.Reset()
		timer.Reset(interval)
	}
}

// restore is the one way a scenario comes back from disk: re-create id
// from the newest checkpoint file that still decodes, stamped with the
// supervised-restart count that led here, and start it; how says why
// in the log. The replay resumes mid-archive.
func (r *Registry) restore(id, how string, restarts int) error {
	ck, path, ok := r.storeFor(id).recoverNewest(r.logf)
	if !ok {
		return errors.New("no usable checkpoint")
	}
	s, err := r.Create(ScenarioConfig{ID: id, Source: SourceCheckpoint, Checkpoint: ck})
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.restarts = restarts
	s.mu.Unlock()
	if err := s.Start(); err != nil {
		return err
	}
	r.logf("scenario %s: %s from %s (%d/%d days)", id, how, path, ck.DaysClosed, ck.TotalDays)
	return nil
}

// maybeRestart is the restart policy's entry point, invoked (on its own
// goroutine) after a scenario records a terminal failure. It backs off,
// re-checks that the failed scenario is still the registered one (a
// Delete or Close during the backoff wins), then replaces it with a
// fresh scenario restored from the newest on-disk checkpoint. When no
// checkpoint is usable — or the crash-loop cap is hit — the scenario
// simply stays failed, visible as such in /healthz.
func (r *Registry) maybeRestart(id string) {
	r.mu.Lock()
	if r.closing {
		r.mu.Unlock()
		return
	}
	st := r.restarts[id]
	if st == nil {
		st = &restartState{bo: r.RestartPolicy.Backoff}
		r.restarts[id] = st
	}
	if st.count >= r.RestartPolicy.max() {
		count := st.count
		r.mu.Unlock()
		r.logf("scenario %s: crash-loop cap reached (%d restarts); staying failed", id, count)
		return
	}
	st.count++
	count := st.count
	delay := st.bo.Next()
	old := r.scenarios[id]
	r.mu.Unlock()
	if old == nil {
		return // deleted before the hook ran
	}
	time.Sleep(delay)
	r.mu.Lock()
	if r.closing || r.scenarios[id] != old {
		r.mu.Unlock()
		return // deleted, closed, or already replaced during the backoff
	}
	delete(r.scenarios, id)
	r.mu.Unlock()
	// Unlike Delete, the on-disk state stays: it is what we restart from.
	old.shutdown()
	how := fmt.Sprintf("restarted (attempt %d/%d)", count, r.RestartPolicy.max())
	if err := r.restore(id, how, count); err != nil {
		r.logf("scenario %s: restart: %v; staying failed", id, err)
		r.reinsert(id, old)
	}
}

// reinsert puts a failed (already shut down) scenario back into the
// registry after an aborted restart, so its failed state stays visible
// instead of the scenario silently vanishing. If the slot was taken in
// the meantime, the newcomer wins.
func (r *Registry) reinsert(id string, s *Scenario) {
	r.mu.Lock()
	if !r.taken(id) && !r.closing {
		r.scenarios[id] = s
	}
	r.mu.Unlock()
}

// LatestCheckpoint returns the path of the scenario's newest on-disk
// checkpoint file, or false when durability is off or nothing has been
// written yet. The GET checkpoint endpoint serves these bytes.
func (r *Registry) LatestCheckpoint(id string) (string, bool) {
	if !r.Durability.enabled() {
		return "", false
	}
	return r.storeFor(id).latest()
}

// Get returns the scenario with the given id, or nil.
func (r *Registry) Get(id string) *Scenario {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.scenarios[id]
}

// List returns every scenario, sorted by ID.
func (r *Registry) List() []*Scenario {
	r.mu.RLock()
	out := make([]*Scenario, 0, len(r.scenarios))
	for _, s := range r.scenarios {
		out = append(out, s)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	return out
}

// Delete removes the scenario, aborting its replay if one is in flight
// (a paused replay is woken to abort) and closing its event hub so SSE
// handlers end. With durability on, the scenario's checkpoint directory
// is removed too — a deleted scenario must not resurrect at the next
// boot's Recover. Deleting an ID whose create is still building makes
// that create fail. Returns false when no such scenario exists.
func (r *Registry) Delete(id string) bool {
	r.mu.Lock()
	s := r.scenarios[id]
	_, building := r.building[id]
	delete(r.scenarios, id)
	delete(r.building, id)
	// A deleted scenario's crash-loop history dies with it: re-creating
	// the ID starts with a fresh restart budget.
	delete(r.restarts, id)
	r.mu.Unlock()
	if s == nil && !building {
		return false
	}
	if s != nil {
		s.shutdown()
	}
	if r.Durability.enabled() {
		if err := r.Durability.fs().RemoveAll(r.storeFor(id).dir); err != nil {
			r.logf("scenario %s: removing checkpoint dir: %v", id, err)
		}
	}
	if r.EpisodeDir != "" {
		// Same rule as checkpoints: a deleted scenario's history must not
		// resurface under a reused ID.
		if err := vfs.Default(r.EpisodeFS).RemoveAll(filepath.Join(r.EpisodeDir, id)); err != nil {
			r.logf("scenario %s: removing episode dir: %v", id, err)
		}
	}
	r.logf("scenario %s: deleted", id)
	return true
}

// Close shuts every scenario down — aborting replays and live runs
// (live sources close their transports: the BGP speaker sends
// NOTIFICATION cease, the RIS client a websocket close), closing hubs,
// stopping auto-checkpoint loops. With durability on, each scenario is
// checkpointed one final time before its shutdown, so a graceful stop
// loses nothing the auto-checkpoint interval would have: Recover at the
// next boot resumes from this exact state. It is the graceful half of
// process shutdown. The registry is empty but reusable afterwards.
func (r *Registry) Close() {
	r.mu.Lock()
	// The closing flag stops in-flight restart attempts from inserting a
	// fresh scenario behind this snapshot's back.
	r.closing = true
	scs := make([]*Scenario, 0, len(r.scenarios))
	for id, s := range r.scenarios {
		scs = append(scs, s)
		delete(r.scenarios, id)
	}
	clear(r.building) // creates still building fail
	r.mu.Unlock()
	for _, s := range scs {
		// The final checkpoint must land before shutdown: a stopped run
		// leaves the scenario in a state Checkpoint refuses.
		if r.Durability.enabled() {
			if _, err := r.persist(s, "final checkpoint"); err != nil {
				r.logf("scenario %s: final checkpoint: %v", s.ID(), err)
			}
		}
		s.shutdown()
	}
	r.mu.Lock()
	// Reusable afterwards: new Creates (and their restarts) are welcome.
	r.closing = false
	r.restarts = make(map[string]*restartState)
	r.mu.Unlock()
}

// Recover scans the durability directory and re-creates scenarios from
// their newest valid on-disk checkpoints, resuming each replay
// mid-archive. Per scenario the newest file wins; a corrupt or
// truncated file (the likely fate of the very checkpoint a crash
// interrupted) falls back to the next older one. Scenarios that cannot
// be recovered at all are logged and skipped — one rotted directory
// must not take down the boot. Returns the number of scenarios
// recovered.
func (r *Registry) Recover() (int, error) {
	if !r.Durability.enabled() {
		return 0, nil
	}
	ents, err := r.Durability.fs().ReadDir(r.Durability.Dir)
	if os.IsNotExist(err) {
		return 0, nil // first boot: nothing persisted yet
	}
	if err != nil {
		return 0, fmt.Errorf("serve: recover: %w", err)
	}
	recovered := 0
	for _, ent := range ents {
		if !ent.IsDir() {
			continue
		}
		id := ent.Name()
		if err := validateID(id); err != nil {
			r.logf("recover: skipping %s: %v", id, err)
			continue
		}
		// A crash can strand the dot-hidden temp file write was filling;
		// boot is the one moment no writer is mid-flight, so sweep them.
		r.storeFor(id).cleanTemps(r.logf)
		if err := r.restore(id, "recovered", 0); err != nil {
			r.logf("recover: scenario %s: %v", id, err)
			continue
		}
		recovered++
	}
	return recovered, nil
}
