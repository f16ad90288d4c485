package stream

import (
	"encoding/hex"
	"fmt"
	"sort"

	"moas/internal/bgp"
	"moas/internal/kernel"
	"moas/internal/ptable"
)

// CheckpointVersion is the engine checkpoint format version. It wraps
// kernel.SnapshotVersion; bump on incompatible changes to the structs
// below.
const CheckpointVersion = 1

// Checkpoint is the serializable image of a settled engine: the merged
// kernel snapshot (episodes, registry, spans, event log), the per-peer
// route tables the kernel's observations are assessed from, and the
// replay cursor (records consumed), so a replay can resume mid-archive.
// It is shard-count independent: restoring into an engine with a
// different Config.Shards redistributes state by prefix hash.
type Checkpoint struct {
	Version       int    `json:"version"`
	LastClosedDay int    `json:"last_closed_day"` // -1 before the first day close
	Messages      uint64 `json:"messages"`
	Ops           uint64 `json:"ops"`
	// Records counts MRT records fully consumed by the replay — the exact
	// skip count for ReplayOptions.Resume.
	Records uint64           `json:"records"`
	Kernel  *kernel.Snapshot `json:"kernel"`
	Routes  []PrefixRoutes   `json:"routes"`
}

// PrefixRoutes is one prefix's per-peer Adj-RIB-In image.
type PrefixRoutes struct {
	Prefix string          `json:"prefix"`
	Routes []PeerRouteSnap `json:"routes"`
}

// PeerRouteSnap is one peer's route for a prefix. PeerIP is the raw
// 16-byte BGP4MP peer address in hex (collector convention, not an
// IP-literal); Attrs is the path-attribute block in 4-octet-AS wire form.
type PeerRouteSnap struct {
	PeerIP string  `json:"peer_ip"`
	PeerAS bgp.ASN `json:"peer_as"`
	Attrs  string  `json:"attrs"`
}

// Checkpoint serializes the engine. The engine must be settled — parked
// after a Pause (Parked), fully replayed, or Closed — so that no batches
// are in flight; each shard is then read under its stripe lock.
func (e *Engine) Checkpoint() *Checkpoint {
	ck := &Checkpoint{
		Version:       CheckpointVersion,
		LastClosedDay: int(e.lastClosed.Load()),
		Messages:      e.msgs.Load(),
		Ops:           e.ops.Load(),
		Records:       e.recs.Load(),
	}
	parts := make([]*kernel.Snapshot, 0, len(e.shards))
	for _, s := range e.shards {
		s.mu.RLock()
		// Taken under the shard lock: every node visible here was applied
		// after its peer entered the table.
		peers := e.peers.snapshot()
		parts = append(parts, s.k.Snapshot())
		s.k.WalkPrefixes(func(id uint32, p bgp.Prefix) bool {
			if int(id) >= s.heads.Len() || *s.heads.At(id) == 0 {
				return true // kernel state only: a lifecycle outliving its routes
			}
			pr := PrefixRoutes{Prefix: p.String()}
			for i := *s.heads.At(id); i != 0; {
				n := s.nodes.At(i)
				peer := &peers[n.peer]
				pr.Routes = append(pr.Routes, PeerRouteSnap{
					PeerIP: hex.EncodeToString(peer.IP[:]),
					PeerAS: peer.AS,
					Attrs:  hex.EncodeToString(s.attrs.ptr(n.attrs&^noOrigin).AppendWireEx(nil, true)),
				})
				i = n.next
			}
			sort.Slice(pr.Routes, func(i, j int) bool {
				if pr.Routes[i].PeerIP != pr.Routes[j].PeerIP {
					return pr.Routes[i].PeerIP < pr.Routes[j].PeerIP
				}
				return pr.Routes[i].PeerAS < pr.Routes[j].PeerAS
			})
			ck.Routes = append(ck.Routes, pr)
			return true
		})
		s.mu.RUnlock()
	}
	ck.Kernel = kernel.Merge(parts)
	sort.Slice(ck.Routes, func(i, j int) bool { return ck.Routes[i].Prefix < ck.Routes[j].Prefix })
	return ck
}

// NewFromCheckpoint starts an engine primed with a checkpoint's state:
// kernel partitions and route tables are redistributed across cfg.Shards
// by prefix hash, and the replay counters resume where the checkpointed
// engine stopped. Continue feeding it with Replay and
// ReplayOptions.Resume{Records: ck.Records, ...} over a fresh open of the
// same archive.
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

	// Split the merged kernel snapshot into per-shard partitions. Spans,
	// the event count and the log are not prefix-keyed state machines —
	// they only ever feed engine-wide concatenations — so they land on
	// shard 0 wholesale.
	parts := make([]*kernel.Snapshot, len(e.shards))
	for i := range parts {
		parts[i] = &kernel.Snapshot{Version: kernel.SnapshotVersion}
	}
	for _, ps := range ck.Kernel.Prefixes {
		p, err := bgp.ParsePrefix(ps.Prefix)
		if err != nil {
			return fail(fmt.Errorf("stream: checkpoint prefix %q: %w", ps.Prefix, err))
		}
		i := ptable.Shard(ptable.Hash(p), len(e.shards))
		parts[i].Prefixes = append(parts[i].Prefixes, ps)
	}
	for _, cs := range ck.Kernel.Conflicts {
		p, err := bgp.ParsePrefix(cs.Prefix)
		if err != nil {
			return fail(fmt.Errorf("stream: checkpoint conflict prefix %q: %w", cs.Prefix, err))
		}
		i := ptable.Shard(ptable.Hash(p), len(e.shards))
		parts[i].Conflicts = append(parts[i].Conflicts, cs)
	}
	parts[0].ClosedSpans = ck.Kernel.ClosedSpans
	parts[0].Events = ck.Kernel.Events
	parts[0].Log = ck.Kernel.Log
	for i, s := range e.shards {
		s.mu.Lock()
		err := s.k.Restore(parts[i])
		s.mu.Unlock()
		if err != nil {
			return fail(err)
		}
	}

	// Rebuild the per-peer route tables, re-sharing identical attribute
	// blocks the way the interning decode stage does on the live path.
	// The restore interner is 4-octet (the checkpoint wire form) and
	// local: a later Replay interns the live 2-octet encoding separately,
	// and the pointer fast path falls back to Attrs.Equal across the two.
	restoreIn := bgp.NewAttrsInterner(true)
	for _, pr := range ck.Routes {
		p, err := bgp.ParsePrefix(pr.Prefix)
		if err != nil {
			return fail(fmt.Errorf("stream: checkpoint route prefix %q: %w", pr.Prefix, err))
		}
		h := ptable.Hash(p)
		s := e.shards[ptable.Shard(h, len(e.shards))]
		s.mu.Lock()
		for _, rt := range pr.Routes {
			ipBytes, err := hex.DecodeString(rt.PeerIP)
			if err != nil || len(ipBytes) != 16 {
				s.mu.Unlock()
				return fail(fmt.Errorf("stream: checkpoint peer ip %q: bad 16-byte hex", rt.PeerIP))
			}
			var peer PeerKey
			copy(peer.IP[:], ipBytes)
			peer.AS = rt.PeerAS
			wire, err := hex.DecodeString(rt.Attrs)
			if err != nil {
				s.mu.Unlock()
				return fail(fmt.Errorf("stream: checkpoint attrs for %s: %w", pr.Prefix, err))
			}
			attrs, err := restoreIn.Intern(wire)
			if err != nil {
				s.mu.Unlock()
				return fail(fmt.Errorf("stream: checkpoint attrs for %s: %w", pr.Prefix, err))
			}
			// upsert, not blind insert: a hand-edited or hostile
			// checkpoint may repeat a peer under one prefix, and a
			// duplicate node would shadow the peer's route forever
			// (list walks stop at the first match). Last entry wins,
			// as the old map-based restore behaved.
			s.upsertRoute(s.head(s.k.Acquire(p, uint32(h))), e.peers.indexOf(peer), attrs)
		}
		s.mu.Unlock()
	}
	return e, nil
}
