package stream

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"

	"moas/internal/bgp"
	"moas/internal/kernel"
	"moas/internal/ptable"
)

// CheckpointVersion is the engine checkpoint format version. It wraps
// kernel.SnapshotVersion; bump on incompatible changes to the structs
// below.
const CheckpointVersion = 1

// Checkpoint is the image of a settled engine: the merged kernel snapshot
// (episodes, registry, spans, event count), the per-peer route tables the
// kernel's observations are assessed from, and the replay cursor (records
// consumed), so a replay can resume mid-archive. It is shard-count
// independent: restoring into an engine with a different Config.Shards
// redistributes state by prefix hash. The image is typed — prefixes, peer
// addresses and attribute blocks are values, which its one encoding, the
// binary codec (binary.go), and NewFromCheckpoint move as they are.
type Checkpoint struct {
	Version       int
	LastClosedDay int // -1 before the first day close
	Messages      uint64
	Ops           uint64
	// Records counts MRT records fully consumed by the replay — the exact
	// number a restored engine's Replay skips.
	Records uint64
	Kernel  *kernel.Snapshot
	// Routes holds one entry per prefix with routes, in Prefix.Compare
	// order; each entry's routes are ordered by peer address, then peer AS.
	Routes []PrefixRoutes
}

// PrefixRoutes is one prefix's per-peer Adj-RIB-In image.
type PrefixRoutes struct {
	Prefix bgp.Prefix
	Routes []PeerRouteSnap
}

// PeerRouteSnap is one peer's route for a prefix.
type PeerRouteSnap struct {
	PeerIP PeerIP
	PeerAS bgp.ASN
	Attrs  WireAttrs
}

// PeerIP is the raw 16-byte BGP4MP peer address (collector convention,
// not an IP literal).
type PeerIP [16]byte

// WireAttrs is a path-attribute block in 4-octet-AS wire form. In an
// image the routes that carry one attribute set alias one block —
// Checkpoint serializes each attrs handle's block once, the binary
// decoder slices them out of its input — so a table's two million routes
// cost as many slice headers, not as many copies. (A block two peers
// announce is two handles, so two copies in the image, and one block in
// the binary encoding, which dedupes by content.)
type WireAttrs []byte

// Checkpoint images the engine. The engine must be settled — parked
// after a Pause (Parked), fully replayed, or Closed — so that no batches
// are in flight; each shard is then read under its stripe lock. The
// image shares no memory the engine will write to again.
func (e *Engine) Checkpoint() *Checkpoint {
	ck := &Checkpoint{
		Version:       CheckpointVersion,
		LastClosedDay: int(e.lastClosed.Load()),
		Messages:      e.msgs.Load(),
		Ops:           e.ops.Load(),
		Records:       e.recs.Load(),
	}
	parts := make([]*kernel.Snapshot, len(e.shards))
	routes := make([][]PrefixRoutes, len(e.shards))
	for i, s := range e.shards {
		s.mu.RLock()
		// Taken under the shard lock: every node visible here was applied
		// after its peer entered the table.
		peers := e.peers.snapshot()
		parts[i] = s.k.Snapshot()
		routes[i] = s.routesImage(peers)
		s.mu.RUnlock()
	}
	ck.Kernel = kernel.Merge(parts)
	ck.Routes = kernel.MergeSorted(routes, comparePrefixRoutes)
	return ck
}

func comparePrefixRoutes(a, b PrefixRoutes) int { return a.Prefix.Compare(b.Prefix) }

// routesImage images every prefix of the shard that holds routes, in
// Prefix.Compare order. Each live attrs handle is serialized once, into
// a block the routes holding the handle alias, and all the shard's route
// entries share one array sized from the handles' reference counts (one
// reference per route). Caller holds the shard lock.
func (s *shard) routesImage(peers []PeerKey) []PrefixRoutes {
	// Blocks are carved from 64 KB chunks with room for any block a BGP
	// message can carry; a longer one just moves append to an array of
	// its own, which the block then aliases instead.
	blocks := make([]WireAttrs, len(s.attrs.ptrs))
	var chunk []byte
	live := 0
	for h, a := range s.attrs.ptrs {
		if a == nil {
			continue
		}
		if cap(chunk)-len(chunk) < 4096 {
			chunk = make([]byte, 0, 1<<16)
		}
		off := len(chunk)
		chunk = a.AppendWireEx(chunk, true)
		blocks[h] = chunk[off:len(chunk):len(chunk)]
		live += int(s.attrs.refs[h])
	}
	routes := make([]PeerRouteSnap, 0, live)
	dst := slices.Grow([]PrefixRoutes(nil), s.k.ArenaStates())
	s.k.WalkPrefixes(func(id uint32, p bgp.Prefix) bool {
		head := *s.k.Head(id)
		if head == 0 {
			return true // kernel state only: a lifecycle outliving its routes
		}
		first := len(routes)
		for i := head; i != 0; {
			n := s.nodes.At(i)
			peer := &peers[s.attrs.peer(n.attrs)]
			routes = append(routes, PeerRouteSnap{
				PeerIP: PeerIP(peer.IP),
				PeerAS: peer.AS,
				Attrs:  blocks[n.attrs],
			})
			i = n.next
		}
		rs := routes[first:len(routes):len(routes)]
		slices.SortFunc(rs, func(a, b PeerRouteSnap) int {
			return cmp.Or(bytes.Compare(a.PeerIP[:], b.PeerIP[:]), cmp.Compare(a.PeerAS, b.PeerAS))
		})
		dst = append(dst, PrefixRoutes{Prefix: p, Routes: rs})
		return true
	})
	slices.SortFunc(dst, comparePrefixRoutes)
	return dst
}

// NewFromCheckpoint starts an engine primed with a checkpoint's state:
// kernel partitions and route tables are redistributed across cfg.Shards
// by prefix hash, and the replay counters resume where the checkpointed
// engine stopped. Continue feeding it with Replay over a fresh open of
// the same archive: the replay resumes at the restored cursor. The engine
// keeps no reference into ck (or into the bytes a decoded ck aliases):
// the image can be dropped once this returns.
func NewFromCheckpoint(cfg Config, ck *Checkpoint) (*Engine, error) {
	if ck.Version != CheckpointVersion {
		return nil, fmt.Errorf("stream: checkpoint version %d, want %d", ck.Version, CheckpointVersion)
	}
	if ck.Kernel == nil {
		return nil, fmt.Errorf("stream: checkpoint has no kernel snapshot")
	}
	e := New(cfg)
	// Every error return below must stop the shard workers New just
	// started, or each rejected checkpoint would leak goroutines.
	fail := func(err error) (*Engine, error) {
		e.Close()
		return nil, err
	}
	e.msgs.Store(ck.Messages)
	e.ops.Store(ck.Ops)
	e.recs.Store(ck.Records)
	e.lastClosed.Store(int64(ck.LastClosedDay))

	for i, s := range e.shards {
		s.mu.Lock()
		err := s.k.RestorePart(ck.Kernel, i, len(e.shards))
		s.mu.Unlock()
		if err != nil {
			return fail(err)
		}
	}

	// Rebuild the per-peer route tables, re-sharing identical attribute
	// blocks the way the interning decode stage does on the live path.
	// The restore interner is local, so its table is garbage once the
	// restore returns instead of living as long as the engine; a later
	// feed interns through the engine's own, and the pointer fast path
	// falls back to Attrs.Equal across the two.
	restoreIn := new(bgp.AttrsInterner)
	for i := range ck.Routes {
		pr := &ck.Routes[i]
		if !pr.Prefix.IsValid() {
			return fail(fmt.Errorf("stream: checkpoint route entry %d has no prefix", i))
		}
		h := ptable.Hash(pr.Prefix)
		s := e.shards[ptable.Shard(h, len(e.shards))]
		s.mu.Lock()
		err := s.restoreRoutes(pr, uint32(h), &e.peers, restoreIn)
		s.mu.Unlock()
		if err != nil {
			return fail(fmt.Errorf("stream: checkpoint attrs for %v: %w", pr.Prefix, err))
		}
	}
	return e, nil
}

// restoreRoutes rebuilds one prefix's route list from its image; the only
// failure is an attribute block that does not parse. Caller holds the
// shard lock.
func (s *shard) restoreRoutes(pr *PrefixRoutes, h uint32, peers *peerTable, in *bgp.AttrsInterner) error {
	if len(pr.Routes) == 0 {
		return nil // nothing to hold an id for
	}
	head := s.k.Head(s.k.Acquire(pr.Prefix, h))
	for i := range pr.Routes {
		rt := &pr.Routes[i]
		attrs, err := in.Intern(rt.Attrs, true) // the image's blocks are 4-octet
		if err != nil {
			return err
		}
		// upsert, not blind insert: a hand-edited or hostile checkpoint
		// may repeat a peer under one prefix, and a duplicate node would
		// shadow the peer's route forever (list walks stop at the first
		// match). Last entry wins, as the old map-based restore behaved.
		s.upsertRoute(head, peers.indexOf(PeerKey{IP: [16]byte(rt.PeerIP), AS: rt.PeerAS}), attrs)
	}
	return nil
}
