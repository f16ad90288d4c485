// Package stream is the live MOAS detection engine: it consumes per-peer
// BGP UPDATE messages (the BGP4MP streams internal/collector derives),
// maintains per-peer Adj-RIB-In state incrementally, and drives the
// shared conflict-state kernel (internal/kernel) the moment an update
// flips a prefix's origin set — no daily table re-scan. The prefix space
// is hashed across N worker shards with batched dispatch; each shard owns
// its prefixes' route state and a kernel instance holding its partition's
// episode records, so throughput scales with cores and a final merge
// yields a registry identical to the batch driver's (proven at the kernel
// level). Live queries — current conflict set, per-prefix state, per-AS
// involvement, duration stats — read the shards through
// their stripe locks while replay is in flight, and Checkpoint/
// NewFromCheckpoint serialize a settled engine so a replay can resume
// mid-archive (checkpoint.go).
package stream

import (
	"moas/internal/kernel"
)

// The conflict lifecycle vocabulary is the kernel's; the aliases keep the
// streaming API surface stable for consumers (serve, moasd, tests) while
// leaving exactly one implementation of the semantics.

// EventType enumerates conflict lifecycle transitions.
type EventType = kernel.EventType

// Event is one conflict lifecycle transition, emitted the moment an
// observation flips a prefix's origin set. For a given input stream the
// event sequence per prefix is deterministic regardless of shard count:
// all of a prefix's updates route to one shard and are applied in stream
// order.
type Event = kernel.Event

// Conflict lifecycle transition kinds (see kernel's definitions).
const (
	EventConflictStart = kernel.EventConflictStart
	EventOriginChange  = kernel.EventOriginChange
	EventClassChange   = kernel.EventClassChange
	EventConflictEnd   = kernel.EventConflictEnd
)
