package stream

import (
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"moas/internal/bgp"
	"moas/internal/core"
	"moas/internal/epilog"
	"moas/internal/kernel"
	"moas/internal/ptable"
	"moas/internal/source"
)

// Config parameterizes an Engine.
type Config struct {
	// Shards is the number of worker goroutines the prefix space is hashed
	// across (0 = GOMAXPROCS).
	Shards int
	// BatchSize is the number of route ops buffered per shard before a
	// dispatch (0 = 256).
	BatchSize int
	// Deprecated: no effect; a replay decodes on its framing goroutine.
	DecodeWorkers int
	// Deprecated: no effect; the engine keeps no per-prefix event
	// history (OnEvent and EpisodeLog are the record of a lifecycle).
	HistoryLimit int
	// Deprecated: no effect; the engine keeps no event log.
	DisableEventLog bool
	// OnEvent, when non-nil, receives every lifecycle event as it is
	// emitted; with EpisodeLog it is the engine's one record of them (the
	// engine retains none, and a checkpoint carries none). Calls come from
	// the shard worker goroutines after the shard lock is released, so a
	// prefix's events arrive in order but events of different prefixes
	// interleave arbitrarily; kernel.SortEvents puts a collection in its
	// canonical order. Every event of the updates the engine has taken in
	// is delivered before a Sync returns or a Pause's channel closes on a
	// parked replay, and none arrives while the replay stays parked. The
	// callback must be fast and must not block (a blocked callback stalls
	// that shard's worker) and must not call back into the engine's feed
	// methods. Its consumers are serve's SSE hub, which fans events out
	// through buffered per-subscriber channels and drops slow subscribers
	// instead of blocking here, and the synth oracle and the tests, which
	// collect them.
	OnEvent func(Event)
	// EpisodeLog, when non-nil, receives the episode record of every
	// lifecycle event (an open restatement per event, a closing record per
	// conflict end). Appends happen on the shard worker goroutines outside
	// the shard lock; the eventless warm path never touches the log.
	EpisodeLog *epilog.Log
}

// Engine is the live streaming MOAS detector. Feed it with ApplyUpdate and
// CloseDay (or Replay over a BGP4MP archive); query it concurrently from
// any goroutine. The feeding side is single-goroutine, as a collector has
// one ingest stream.
type Engine struct {
	cfg    Config
	shards []*shard
	peers  peerTable
	pend   [][]op // dispatcher-owned per-shard pending batches
	// opFree recycles op slices between the dispatcher and the shard
	// workers: flushShard takes a drained slice instead of allocating a
	// fresh batch per flush, so steady-state dispatch allocates nothing.
	opFree chan []op
	// interner canonicalizes decoded path-attribute blocks by wire bytes
	// for the feed's producer, an archive's or a live one; one pointer per
	// distinct block is what makes applyOne's pointer-equality fast path
	// hit and keeps the steady-state heap proportional to distinct attrs,
	// not routes.
	interner *bgp.AttrsInterner
	wg       sync.WaitGroup
	closed   atomic.Bool // set by Close; Stats reports it as !Replaying

	msgs       atomic.Uint64
	ops        atomic.Uint64
	recs       atomic.Uint64 // checkpoint cursor: the last applied record's producer stamp
	lastClosed atomic.Int64  // last day-close dispatched; -1 before any

	// dec points at the current/last replay's decode-stage counters (see
	// decStage); nil until the first Replay.
	dec atomic.Pointer[decStage]

	// src holds the live source a Run loop is currently draining (a
	// srcBox so the stored type is always identical); Stats and the
	// health endpoint read its Status through here.
	src atomic.Value

	// Pause gate. paused holds the pending pause request; Resume swaps it
	// out and releases it. A replay parks on it between records. parked
	// flips true once the replay has actually settled and blocked.
	paused atomic.Pointer[pauseReq]
	parked atomic.Bool

	// First unrecoverable worker failure (a panicked shard, contained by
	// supervise). failedCh is closed on the first recordFailure so
	// Replay/Run loops blocked on a channel can wake up and abort; the
	// dead worker itself switches to drain mode so producers never block
	// on its queue.
	failMu   sync.Mutex
	failErr  error
	failedCh chan struct{}
}

// New starts an engine and its shard workers.
func New(cfg Config) *Engine {
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 256
	}
	e := &Engine{
		cfg:   cfg,
		peers: peerTable{index: make(map[PeerKey]uint32)},
		pend:  make([][]op, cfg.Shards),
		// Capacity covers every batch that can be in flight at once (per
		// shard: the queue plus one being applied plus one pending), so a
		// recycled slice is always waiting once the pipeline warms up.
		opFree:   make(chan []op, cfg.Shards*(shardQueue+2)),
		interner: new(bgp.AttrsInterner),
		failedCh: make(chan struct{}),
	}
	e.lastClosed.Store(-1)
	for i := 0; i < cfg.Shards; i++ {
		s := newShard(cfg.OnEvent, e.putOps, cfg.EpisodeLog)
		s.onFail = e.recordFailure
		e.shards = append(e.shards, s)
		e.wg.Add(1)
		go s.run(&e.wg)
	}
	return e
}

// recordFailure stores the first unrecoverable worker failure and
// wakes anything selecting on failed(). Later failures are dropped:
// the scenario is already doomed and the first cause is the one worth
// reporting.
func (e *Engine) recordFailure(err error) {
	if err == nil {
		return
	}
	e.failMu.Lock()
	if e.failErr == nil {
		e.failErr = err
		close(e.failedCh)
	}
	e.failMu.Unlock()
}

// Err returns the first contained worker failure, nil while healthy.
func (e *Engine) Err() error {
	e.failMu.Lock()
	defer e.failMu.Unlock()
	return e.failErr
}

// failed is closed once a worker failure has been recorded.
func (e *Engine) failed() <-chan struct{} { return e.failedCh }

// takeOps returns a recycled op slice, or a fresh one while the pool
// warms up.
func (e *Engine) takeOps() []op {
	select {
	case b := <-e.opFree:
		return b
	default:
		return make([]op, 0, e.cfg.BatchSize)
	}
}

// putOps recycles a drained op slice; called by shard workers. The pool
// is sized to always have room, but a full pool simply drops the slice.
func (e *Engine) putOps(b []op) {
	select {
	case e.opFree <- b[:0]:
	default:
	}
}

// peerTable numbers the collector peers an engine has heard from, so
// ops and route nodes carry a 4-byte index instead of the 20-byte key.
// It only grows: a collector has tens of peers.
type peerTable struct {
	index map[PeerKey]uint32 // feeding goroutine only
	mu    sync.RWMutex       // guards keys against concurrent readers
	keys  []PeerKey
}

// indexOf returns k's index, entering k on first sight. Feeding
// goroutine only.
func (t *peerTable) indexOf(k PeerKey) uint32 {
	i, ok := t.index[k]
	if !ok {
		t.mu.Lock()
		i = uint32(len(t.keys))
		t.keys = append(t.keys, k)
		t.mu.Unlock()
		t.index[k] = i
	}
	return i
}

// snapshot returns the keys entered so far; entries are immutable, so
// the slice stays valid while the table keeps growing.
func (t *peerTable) snapshot() []PeerKey {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.keys[:len(t.keys):len(t.keys)]
}

// ApplyUpdate decomposes one peer's UPDATE message into route ops —
// withdrawals then announcements, as on the wire — and dispatches them to
// the owning shards. The peer is resolved to its table index once per
// message, not once per route.
func (e *Engine) ApplyUpdate(day int, peer PeerKey, u *bgp.Update) {
	e.msgs.Add(1)
	pi := e.peers.indexOf(peer)
	n := len(u.Withdrawn)
	for _, p := range u.Withdrawn {
		e.dispatch(op{day: int32(day), peer: pi, prefix: p})
	}
	if u.Attrs != nil {
		n += len(u.NLRI)
		for _, p := range u.NLRI {
			e.dispatch(op{day: int32(day), peer: pi, prefix: p, attrs: u.Attrs})
		}
	}
	e.ops.Add(uint64(n))
}

// dispatch hashes the op's prefix once: the high word of the hash picks
// the shard, the low word rides in the op to address the shard's table.
func (e *Engine) dispatch(o op) {
	h := ptable.Hash(o.prefix)
	o.hash = uint32(h)
	i := ptable.Shard(h, len(e.shards))
	e.pend[i] = append(e.pend[i], o)
	if len(e.pend[i]) >= e.cfg.BatchSize {
		e.flushShard(i)
	}
}

func (e *Engine) flushShard(i int) {
	if len(e.pend[i]) == 0 {
		return
	}
	e.shards[i].ch <- batch{ops: e.pend[i]}
	e.pend[i] = e.takeOps()
}

// flush hands every shard its pending ops.
func (e *Engine) flush() {
	for i := range e.shards {
		e.flushShard(i)
	}
}

// CloseDay flushes pending batches and sends every shard a day-close
// barrier: each records its active conflicts for the day into its registry
// slice. FIFO channels guarantee the barrier lands after all of the day's
// updates.
func (e *Engine) CloseDay(day int) {
	e.flush()
	for _, s := range e.shards {
		s.ch <- batch{closeDay: day}
	}
	e.lastClosed.Store(int64(day))
}

// Sync blocks until every shard has processed all previously dispatched
// work — a fence for callers that need a settled view (tests, pause
// points). Like the feed methods it belongs to the ingest goroutine.
func (e *Engine) Sync() {
	e.flush()
	var wg sync.WaitGroup
	wg.Add(len(e.shards))
	for _, s := range e.shards {
		s.ch <- batch{sync: &wg}
	}
	wg.Wait()
}

// pauseReq is one pause request: parked closes once the replay has
// settled and blocked on it or once Resume withdraws it, whichever comes
// first (the gate and Resume race, hence the once); Resume closes
// release.
type pauseReq struct {
	parked, release chan struct{}
	signal          sync.Once
}

// wake closes parked; the first call does, later ones are no-ops.
func (r *pauseReq) wake() { r.signal.Do(func() { close(r.parked) }) }

// Pause asks the engine's replay to park at its next record boundary and
// returns a channel that closes once the replay has parked or the
// request was withdrawn (Resume) — a waiter re-checks Parked() after it
// wakes. Safe from any goroutine (serve's pause endpoint calls it while a
// replay is in flight); a Pause while one is already pending returns that
// request's channel. The replay settles all shards (Sync) before parking,
// so once it has parked, queries see a stable view and OnEvent has
// delivered every event of what was applied; no event follows until
// Resume is called and feeding resumes. Pausing an engine with no replay
// in flight simply primes the gate for the next Replay call.
func (e *Engine) Pause() <-chan struct{} {
	for {
		if req := e.paused.Load(); req != nil {
			return req.parked
		}
		req := &pauseReq{parked: make(chan struct{}), release: make(chan struct{})}
		if e.paused.CompareAndSwap(nil, req) {
			return req.parked
		}
	}
}

// Resume releases a paused replay and wakes any waiter on the request's
// Pause channel. Safe from any goroutine; a no-op when not paused.
func (e *Engine) Resume() {
	if req := e.paused.Swap(nil); req != nil {
		req.wake()
		close(req.release)
	}
}

// Paused reports whether a pause has been requested. The replay may not
// have parked yet; a settled view is only guaranteed once it has.
func (e *Engine) Paused() bool {
	return e.paused.Load() != nil
}

// Parked reports whether a paused replay has actually settled and
// blocked: every shard is drained and the engine serves a stable view.
// Checkpointing a mid-replay engine requires it.
func (e *Engine) Parked() bool {
	return e.parked.Load()
}

// Records returns the record cursor — the checkpoint cursor
// (Checkpoint.Records): the raw MRT records Replay has fully consumed, or
// for a live feed the cursor Run started at plus the source's sequence
// number of the last record applied. The auto-checkpoint loop reads it
// as a cheap progress probe to skip writes when nothing moved.
func (e *Engine) Records() uint64 {
	return e.recs.Load()
}

// DistinctAttrs returns the number of distinct path-attribute blocks the
// feed's producer has interned, Replay's framer or the source Run pulls
// from — the live measure of how repetitive the feed is (and of the
// interner's memory footprint). Safe to call concurrently with either.
func (e *Engine) DistinctAttrs() int {
	return e.interner.Len()
}

// Interner exposes the engine's attrs interner for live sources, whose
// Next decodes on the producer goroutine Run starts: sharing it is what
// makes a wire-decoded attrs block land on the same canonical pointer a
// file replay produces (a block is canonical per AS width: a RIS Live
// client's 4-octet blocks and a 2-octet feed's are held apart, and the
// shards' Attrs.Equal fallback equates them). The interner has one writer
// at a time (see bgp.AttrsInterner): Replay's framer or the source Run
// pulls from, and a Replay and a Run on one engine must not overlap.
// Nothing else may intern through it while either runs; its counters
// (Len, Epochs, Bytes) are safe to read from any goroutine.
func (e *Engine) Interner() *bgp.AttrsInterner {
	return e.interner
}

// Close flushes remaining work, stops the workers and waits for them to
// drain. The engine stays queryable; it only stops accepting updates.
func (e *Engine) Close() {
	if e.closed.Swap(true) {
		return
	}
	e.flush()
	for _, s := range e.shards {
		close(s.ch)
	}
	e.wg.Wait()
}

// Closed reports whether Close has been called: the engine is queryable
// but accepts no more updates (Stats reports it as !Replaying).
func (e *Engine) Closed() bool { return e.closed.Load() }

// Registry renders every shard kernel's conflict records (copies of
// them) as one registry — after a full archive replay it is identical to
// what the batch full-table scan (driver.RunFullScanScenario) builds.
// Safe to call concurrently with replay, but a mid-day call sees only
// days closed so far.
func (e *Engine) Registry() *core.Registry {
	out := core.NewRegistry()
	for _, s := range e.shards {
		s.mu.RLock()
		s.k.WalkConflicts(func(c *core.Conflict) bool {
			out.Insert(c.Clone())
			return true
		})
		s.mu.RUnlock()
	}
	return out
}

// ConflictInfo is one active conflict as served by the live query API.
type ConflictInfo struct {
	Prefix  bgp.Prefix
	Origins []bgp.ASN
	Class   core.Class
	// SinceDay is when the current activation began; the registry fields
	// cover the conflict's whole lifetime through the last closed day.
	SinceDay     int
	FirstDay     int
	LastDay      int
	DaysObserved int
}

// ActiveConflicts returns the current conflict set sorted by prefix.
func (e *Engine) ActiveConflicts() []ConflictInfo {
	var out []ConflictInfo
	for _, s := range e.shards {
		s.mu.RLock()
		s.k.WalkActive(func(p bgp.Prefix, v kernel.View) bool {
			ci := ConflictInfo{
				Prefix:   p,
				Origins:  append([]bgp.ASN(nil), v.Origins...),
				Class:    v.Class,
				SinceDay: v.Since,
			}
			if c := v.Conflict; c != nil {
				ci.FirstDay, ci.LastDay, ci.DaysObserved = c.FirstDay, c.LastDay, c.DaysObserved
			}
			out = append(out, ci)
			return true
		})
		s.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Prefix.Compare(out[j].Prefix) < 0 })
	return out
}

// PrefixInfo is one prefix's live state and lifetime record. Its
// lifecycle events are OnEvent's and the episode log's.
type PrefixInfo struct {
	Prefix   bgp.Prefix
	Active   bool
	Origins  []bgp.ASN
	Class    core.Class
	Routes   int            // peers currently announcing the prefix
	Conflict *core.Conflict // lifetime record; nil if never in conflict
}

// Prefix reports the live state of one prefix.
func (e *Engine) Prefix(p bgp.Prefix) PrefixInfo {
	h := ptable.Hash(p)
	s := e.shards[ptable.Shard(h, len(e.shards))]
	s.mu.RLock()
	defer s.mu.RUnlock()
	info := PrefixInfo{Prefix: p}
	if v, ok := s.k.State(p); ok {
		info.Active = v.Active
		info.Origins = append([]bgp.ASN(nil), v.Origins...)
		info.Class = v.Class
		if v.Conflict != nil {
			info.Conflict = v.Conflict.Clone()
		}
	}
	if id, ok := s.k.Lookup(p, uint32(h)); ok {
		info.Routes = s.routeCount(*s.k.Head(id))
	}
	return info
}

// ASInvolvement summarizes one AS's participation in conflicts;
// marshalled, it is the /as/{asn} document.
type ASInvolvement struct {
	ASN    bgp.ASN `json:"asn"`
	Active int     `json:"active"` // current conflicts whose origin set includes the AS
	Ever   int     `json:"ever"`   // lifetime conflicts whose origin set ever included it
	// ActivePrefixes lists the current conflicts, sorted; empty, not nil,
	// when there are none (an empty JSON array).
	ActivePrefixes []bgp.Prefix `json:"active_prefixes"`
}

// Involvement reports a's conflict participation — the live form of the
// paper's §VI-E spike attribution.
func (e *Engine) Involvement(a bgp.ASN) ASInvolvement {
	inv := ASInvolvement{ASN: a, ActivePrefixes: []bgp.Prefix{}}
	for _, s := range e.shards {
		s.mu.RLock()
		s.k.WalkActive(func(p bgp.Prefix, v kernel.View) bool {
			if slices.Contains(v.Origins, a) {
				inv.Active++
				inv.ActivePrefixes = append(inv.ActivePrefixes, p)
			}
			return true
		})
		s.k.WalkConflicts(func(c *core.Conflict) bool {
			if slices.Contains(c.OriginsEver, a) {
				inv.Ever++
			}
			return true
		})
		s.mu.RUnlock()
	}
	sort.Slice(inv.ActivePrefixes, func(i, j int) bool {
		return inv.ActivePrefixes[i].Compare(inv.ActivePrefixes[j]) < 0
	})
	return inv
}

// Stats is a point-in-time engine summary. Marshalled, it is the engine's
// part of the per-scenario /stats document (serve adds the class names,
// lifecycle state and health).
type Stats struct {
	Shards          int                  `json:"shards"`
	Messages        uint64               `json:"messages"`        // UPDATE messages ingested
	Ops             uint64               `json:"ops"`             // route-level operations dispatched
	LastClosedDay   int                  `json:"last_closed_day"` // -1 before the first day close
	DistinctAttrs   int                  `json:"distinct_attrs"`  // attrs blocks interned by the feed's producer (Replay or Run)
	InternerEpochs  int                  `json:"interner_epochs"` // cap-triggered interner rebuilds (bgp.DefaultInternCap distinct blocks each)
	InternerBytes   int64                `json:"interner_bytes"`  // approximate retained interner memory
	RouteNodes      int                  `json:"route_nodes"`     // route-node arena entries carved across all shards
	KernelStates    int                  `json:"kernel_states"`   // prefix-table entries carved across all shard kernels
	AttrHandles     int                  `json:"-"`               // attrs-handle table entries carved across all shards
	Peers           int                  `json:"-"`               // collector peers in the engine's peer table
	ActiveConflicts int                  `json:"active_conflicts"`
	TotalConflicts  int                  `json:"total_conflicts"` // distinct prefixes ever in conflict
	Events          int                  `json:"events"`          // lifecycle events emitted
	ByClass         [core.NumClasses]int `json:"-"`               // active conflicts per class
	// Replaying is true until Close: the engine still accepts updates.
	Replaying bool `json:"replaying"`
	// Source is the live source's connection state when a Run loop is
	// draining one; nil for replay-fed or idle engines.
	Source *source.Status `json:"source,omitempty"`
	// Lifecycle summarizes activation-span durations (each conflict start
	// to its end, or to the last closed day while open).
	Lifecycle kernel.LifecycleStats `json:"lifecycle"`
	// Decode describes the replay producer; zero-valued (and omitted)
	// until the engine's first Replay.
	Decode DecodeStats `json:"decode,omitzero"`
}

// DecodeStats is the replay producer's observability view: where the
// next bottleneck is hiding. RingOccupancy near the ring size means the
// framer (framing and decode) is running ahead of apply; occupancy near
// zero means the framer is the limit.
type DecodeStats struct {
	Frames        uint64  `json:"frames"`         // MRT records framed (read-ahead of the cursor)
	FramesPerSec  float64 `json:"frames_per_sec"` // current/last replay's framing rate since its first framed record
	RingOccupancy int     `json:"ring_occupancy"` // batches somewhere between framing and apply
}

// LastClosedDay returns the last day close dispatched (-1 before any) —
// the natural as-of day for rendering open episodes from the episode
// log without paying for a full Stats snapshot.
func (e *Engine) LastClosedDay() int { return int(e.lastClosed.Load()) }

// Stats snapshots the engine.
func (e *Engine) Stats() Stats {
	var spans kernel.Durations
	st := Stats{
		Shards:         len(e.shards),
		Messages:       e.msgs.Load(),
		Ops:            e.ops.Load(),
		LastClosedDay:  int(e.lastClosed.Load()),
		DistinctAttrs:  e.DistinctAttrs(),
		InternerEpochs: e.interner.Epochs(),
		InternerBytes:  e.interner.Bytes(),
		Replaying:      !e.Closed(),
		Source:         e.SourceStatus(),
		Peers:          len(e.peers.snapshot()),
	}
	for _, s := range e.shards {
		s.mu.RLock()
		st.ActiveConflicts += s.k.ActiveCount()
		st.TotalConflicts += s.k.ConflictCount()
		st.Events += s.k.EventCount()
		st.RouteNodes += max(s.nodes.Len()-1, 0) // node 0 is the reserved "none"
		st.KernelStates += s.k.ArenaStates()
		st.AttrHandles += len(s.attrs.ptrs)
		s.k.WalkActive(func(_ bgp.Prefix, v kernel.View) bool {
			st.ByClass[v.Class]++
			return true
		})
		s.k.AddDurations(&spans, st.LastClosedDay)
		s.mu.RUnlock()
	}
	st.Lifecycle = spans.Stats()
	st.Decode = e.decodeStats()
	return st
}

// decodeStats snapshots the replay producer from the stage handle the
// current (or last finished) Replay published.
func (e *Engine) decodeStats() DecodeStats {
	ds := e.dec.Load()
	if ds == nil {
		return DecodeStats{}
	}
	st := DecodeStats{
		Frames:        ds.frames.Load(),
		RingOccupancy: int(ds.occupancy.Load()),
	}
	start, end := ds.start.Load(), ds.end.Load()
	if end == 0 {
		end = time.Now().UnixNano()
	}
	if start != 0 && end > start {
		st.FramesPerSec = float64(st.Frames) / time.Duration(end-start).Seconds()
	}
	return st
}
