package stream

import (
	"sync"

	"moas/internal/arena"
	"moas/internal/bgp"
	"moas/internal/core"
	"moas/internal/epilog"
	"moas/internal/kernel"
	"moas/internal/rib"
	"moas/internal/supervise"
)

// PeerKey identifies a collector peer the way BGP4MP records do: peer
// address plus peer AS.
type PeerKey struct {
	IP [16]byte
	AS bgp.ASN
}

// op is one route-level change dispatched to a shard. It carries what
// the dispatcher already resolved — the peer's index in the engine's
// peer table and the prefix's slot hash — so the shard neither hashes
// nor compares a 20-byte peer key per route.
type op struct {
	attrs  *bgp.Attrs // nil withdraws; shared and immutable once dispatched
	hash   uint32     // uint32(ptable.Hash(prefix))
	peer   uint32     // index into Engine.peers
	day    int32
	prefix bgp.Prefix
}

// batch is the unit a shard consumes: a run of ops, a day-close barrier, or
// a sync fence.
type batch struct {
	ops      []op
	closeDay int             // valid when ops == nil and sync == nil
	sync     *sync.WaitGroup // non-nil: fence — signal and continue
}

// routeNode is one (peer → attrs) entry of a prefix's live route table.
// Nodes live in the shard's chunked arena and chain through indices, so
// the per-prefix table is a linked list with no per-prefix heap object:
// route flap — withdraw-then-reannounce, the dominant churn on a real
// feed — recycles nodes through the shard free list instead of
// reallocating maps. Peer counts per prefix are small (a collector has
// tens of peers), so the linear list walk beats a map on both allocation
// and locality. A node is 8 pointer-free bytes: the garbage collector
// never looks inside the arena, and the route's peer and origin AS are
// properties of its attrs handle, which names a (peer, block) pair, so a
// list walk tests a node's peer and reassessing a prefix reads its
// origin from one handle record per node.
type routeNode struct {
	attrs uint32 // attrTable handle: the route's peer and its block
	next  uint32 // arena index of the prefix's next route; 0 ends
}

// shard owns a hash partition of the prefix space: the per-peer route
// state and a kernel instance holding that partition's conflict episodes.
// Its mutex is one stripe of the engine's read-optimized index: the
// worker goroutine write-locks per batch, live queries read-lock per
// shard.
type shard struct {
	mu sync.RWMutex
	// k owns the shard's prefix table, and each prefix's record there
	// holds its first route node (k.Head; 0: no routes). Node 0 is
	// reserved so that a zeroed head or next means "none".
	k        *kernel.Kernel
	nodes    arena.Chunks[routeNode]
	freeNode uint32 // head of the recycled-node list, 0 when empty
	attrs    attrTable

	// origScratch is the reusable target of the per-change origin-set
	// recompute; the kernel copies it only on an actual transition, so
	// steady-state churn is alloc-free. pathScratch collects the AS paths
	// for classification, which only a multi-origin prefix needs.
	origScratch []bgp.ASN
	pathScratch []bgp.Path
	notify      func(Event) // engine Config.OnEvent; called outside the lock
	notifyBuf   []Event     // events emitted by the batch being applied
	recycle     func([]op)  // returns drained batch slices to the engine pool
	ch          chan batch

	// epLog receives episode records outside the lock; epBuf stages the
	// batch's records, so a batch with no lifecycle events — the warm
	// path — costs the episode log nothing.
	epLog *epilog.Log
	epBuf []core.Episode

	// Panic containment: onFail reports the first contained panic to
	// the engine; dead (worker-goroutine-local) flips the shard into
	// drain mode, where it keeps servicing sync fences and recycling
	// batches — so producers never block — but applies nothing.
	onFail func(error)
	dead   bool
}

// shardQueue is each shard's channel depth in batches; full queues exert
// backpressure on the ingest goroutine.
const shardQueue = 8

func newShard(notify func(Event), recycle func([]op), epLog *epilog.Log) *shard {
	return &shard{
		k:       kernel.New(kernel.Options{}),
		notify:  notify,
		recycle: recycle,
		ch:      make(chan batch, shardQueue),
		epLog:   epLog,
	}
}

// run is the shard worker loop; it exits when the channel closes.
func (s *shard) run(wg *sync.WaitGroup) {
	defer wg.Done()
	for b := range s.ch {
		s.process(b)
	}
}

// process handles one batch with panic containment: a panic anywhere
// in the apply path (kernel, episode log, event subscriber) is
// captured as the engine's failure and kills only this shard, which
// then drains — sync fences still release, batches still recycle —
// so the dispatcher, Sync and Close never deadlock while the owning
// scenario transitions to failed.
func (s *shard) process(b batch) {
	defer func() {
		if v := recover(); v != nil {
			s.dead = true
			if s.onFail != nil {
				s.onFail(supervise.AsError("shard worker", v))
			}
		}
	}()
	if s.dead {
		switch {
		case b.sync != nil:
			b.sync.Done()
		case b.ops != nil:
			if s.recycle != nil {
				s.recycle(b.ops)
			}
		}
		return
	}
	switch {
	case b.sync != nil:
		b.sync.Done()
	case b.ops == nil:
		s.closeDay(b.closeDay)
	default:
		s.apply(b.ops)
		if s.recycle != nil {
			s.recycle(b.ops)
		}
	}
}

// apply applies one batch of route ops under a single lock acquisition,
// then delivers the batch's lifecycle events to the engine's OnEvent
// subscriber outside the lock (so a subscriber may query the engine
// without deadlocking, and a slow one delays only this shard's feed, not
// its readers).
func (s *shard) apply(ops []op) {
	s.mu.Lock()
	locked := true
	// Release the lock if a panic unwinds mid-apply, so API readers
	// on a failed engine don't hang on a mutex a dead worker holds.
	defer func() {
		if locked {
			s.mu.Unlock()
		}
	}()
	for i := range ops {
		s.applyOne(&ops[i])
	}
	notes := s.notifyBuf
	eps := s.epBuf
	locked = false
	s.mu.Unlock()
	// The batch's episodes go to the log in one Append — one write —
	// before the event notifications, so an SSE subscriber reacting to
	// an event finds the log at least as fresh. Append errors degrade
	// inside the log (surfaced by its Health); the engine keeps
	// streaming.
	if len(eps) > 0 {
		_ = s.epLog.Append(eps...)
	}
	for i := range notes {
		s.notify(notes[i])
	}
	s.notifyBuf = s.notifyBuf[:0]
	s.epBuf = s.epBuf[:0]
}

// allocNode returns a free node index, recycling before growing the arena.
func (s *shard) allocNode() uint32 {
	if i := s.freeNode; i != 0 {
		s.freeNode = s.nodes.At(i).next
		return i
	}
	i := s.nodes.Alloc()
	if i == 0 { // reserved: 0 means "no node"
		i = s.nodes.Alloc()
	}
	return i
}

func (s *shard) applyOne(o *op) {
	var head *uint32
	var id uint32
	if o.attrs == nil {
		var ok bool
		if id, ok = s.k.Lookup(o.prefix, o.hash); !ok {
			return
		}
		head = s.k.Head(id)
		if !s.removeRoute(head, o.peer) {
			return
		}
	} else {
		id = s.k.Acquire(o.prefix, o.hash)
		head = s.k.Head(id)
		if !s.upsertRoute(head, o.peer, o.attrs) {
			return
		}
	}
	s.reassess(id, *head, o.prefix, int(o.day))
}

// upsertRoute stores a as peer's route in the list at *head and reports
// whether anything changed.
func (s *shard) upsertRoute(head *uint32, peer uint32, a *bgp.Attrs) bool {
	for i := *head; i != 0; {
		n := s.nodes.At(i)
		if s.attrs.peer(n.attrs) == peer {
			// Pointer equality first: the replay decode stage interns
			// attrs by wire bytes, so a re-announcement with unchanged
			// attributes — the overwhelmingly common case on a real feed —
			// carries the exact pointer already stored and never reaches
			// the deep comparison. Equal stays as the fallback for attrs
			// from other feeders (direct ApplyUpdate callers, checkpoint
			// restores, a block of the other AS width, a later interner
			// epoch).
			cur := n.attrs
			if c := s.attrs.ptr(cur); c == a || c.Equal(a) {
				return false
			}
			n.attrs = s.attrs.acquire(a, peer)
			s.attrs.release(cur)
			return true
		}
		i = n.next
	}
	i := s.allocNode()
	n := s.nodes.At(i)
	n.attrs, n.next = s.attrs.acquire(a, peer), *head
	*head = i
	return true
}

// removeRoute unlinks peer's route from the list at *head and reports
// whether there was one.
func (s *shard) removeRoute(head *uint32, peer uint32) bool {
	link := head
	for i := *link; i != 0; i = *link {
		n := s.nodes.At(i)
		if s.attrs.peer(n.attrs) == peer {
			*link = n.next
			s.attrs.release(n.attrs)
			*n = routeNode{next: s.freeNode}
			s.freeNode = i
			return true
		}
		link = &n.next
	}
	return false
}

// routeCount returns the length of the route list at head.
func (s *shard) routeCount(head uint32) int {
	n := 0
	for i := head; i != 0; i = s.nodes.At(i).next {
		n++
	}
	return n
}

// reassess recomputes the prefix's origin set and classification after a
// route change and drives the observation through the kernel, then routes
// the lifecycle event the change implies, if any, to each of the shard's
// sinks: the episode log (as the record the kernel derives from it) and
// the OnEvent subscriber. A staged record's origin sets alias the
// event's, which the kernel never writes again once emitted, so nothing
// is copied. The origins come from the nodes' attrs handles, which
// took them from the AS path once, and land in the shard's reusable
// scratch; the kernel commits a
// fresh copy only when the set actually changed, so the common case — an
// update that does not flip the origin set — performs zero allocations
// (BenchmarkShardReassess's claim) and touches no attribute block.
func (s *shard) reassess(id, head uint32, p bgp.Prefix, day int) {
	// Origin-set insertion and ClassifyPaths are order-independent, so
	// the list order cannot leak into events or the registry.
	origins := s.origScratch[:0]
	for i := head; i != 0; {
		n := s.nodes.At(i)
		if as, ok := s.attrs.origin(n.attrs); ok {
			origins = rib.InsertOrigin(origins, as)
		}
		i = n.next
	}
	s.origScratch = origins
	var class core.Class
	if len(origins) >= 2 {
		paths := s.pathScratch[:0]
		for i := head; i != 0; {
			n := s.nodes.At(i)
			paths = append(paths, s.attrs.ptr(n.attrs).ASPath)
			i = n.next
		}
		s.pathScratch = paths
		class = core.ClassifyPaths(paths)
	}
	obs := kernel.Obs{Day: day, Prefix: p, Origins: origins, Class: class}
	for _, ev := range s.k.ApplyAt(id, obs) {
		if s.epLog != nil {
			s.epBuf = append(s.epBuf, s.k.Episode(id, &ev))
		}
		if s.notify != nil {
			s.notifyBuf = append(s.notifyBuf, ev)
		}
	}
}

// closeDay records the day's active conflicts into the shard's kernel
// registry — the streaming analogue of the paper's daily table scan,
// costing O(active conflicts in shard) instead of O(table).
func (s *shard) closeDay(day int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.k.CloseDay(day)
}
