// Package source defines the live-ingest abstraction: a Source is a
// pull-style stream of timestamped, per-source-sequenced BGP UPDATE
// records that the streaming engine consumes through one uniform loop
// (stream.Engine.Run), whether the records come from a finite MRT
// archive on disk (File), a RIS Live–style JSON-over-websocket feed
// (source/rislive), or BGP sessions accepted from real daemons
// (source/bgpd). The sequencing is the continuous-operation contract:
// Record.Seq ascends per source, survives reconnects, and is what an
// engine checkpoint stores as its cursor, so a restarted monitor knows
// how far it got even when the feed itself cannot replay. Sources that
// lose their transport report the discontinuity as a Gap instead of
// pretending the stream was contiguous.
package source

import (
	"math/rand"
	"time"

	"moas/internal/bgp"
)

// Record is one update delivered by a source. The engine's puller owns a
// ring of record slots and passes them to Next in turn, filling a batch
// with consecutive records; implementations decode into the slot they
// are given, reusing the Upd slices' backing arrays, so a steady feed
// allocates nothing per record beyond what the transport itself needs.
// Everything the engine retains is copied out by value or canonical by
// construction (interned attrs), exactly as the archive decode stage
// already guarantees.
type Record struct {
	// Seq is the per-source sequence number of this record, ascending
	// from 1 and monotonic across reconnects of the same Source value.
	// It is the checkpoint cursor for live feeds.
	Seq uint64
	// TS is the record's Unix timestamp (seconds): the MRT record
	// header, the RIS message timestamp, or the speaker's arrival
	// clock. It drives observation-day accounting.
	TS uint32
	// PeerIP/PeerAS identify the peer that announced the update, in the
	// BGP4MP convention (IPv4 in the first 4 bytes of PeerIP).
	PeerIP [16]byte
	PeerAS bgp.ASN
	// Upd is the decoded update. Attrs is interned (shared, immutable)
	// when the source was built over an interner.
	Upd bgp.Update
}

// Gap reports a delivery discontinuity: records were (or may have been)
// lost between the previous record and the next one, typically across a
// transport reconnect. Sources surface gaps through an OnGap callback;
// serve forwards them to the SSE hub as "gap" events.
type Gap struct {
	// Missed is the number of records known to be lost. Valid only when
	// Known; a source without server-side sequencing cannot count what
	// it never saw.
	Missed uint64
	// Known reports whether Missed is exact.
	Known bool
}

// Status is a source's connection state, served by /stats and /healthz.
type Status struct {
	// Kind names the source implementation: "file", "rislive", "bgp".
	Kind string `json:"kind"`
	// Endpoint is what the source is attached to: a path, URL, or
	// listen address.
	Endpoint string `json:"endpoint,omitempty"`
	// Connected reports a live transport: a websocket that is up, at
	// least one established BGP session, a file not yet exhausted.
	Connected bool `json:"connected"`
	// Records is the per-source sequence high-water mark (Record.Seq of
	// the last delivered record).
	Records uint64 `json:"records"`
	// Reconnects counts transport re-establishments (websocket redials,
	// BGP session re-accepts after the first).
	Reconnects uint64 `json:"reconnects"`
	// Gaps counts delivery discontinuities reported via OnGap.
	Gaps uint64 `json:"gaps"`
	// Peers is the number of live BGP sessions (bgp kind only).
	Peers int `json:"peers,omitempty"`
	// LastError is the most recent transport error, cleared on
	// reconnect — empty while healthy.
	LastError string `json:"last_error,omitempty"`
}

// Source is a pull stream of update records. Next blocks until a record
// is available, filling rec in place, and returns io.EOF when the
// source is exhausted (file) or closed; any other error is fatal to the
// stream (sources with recoverable transports reconnect internally and
// never surface transient errors). Buffered reports whether Next would
// return without blocking — a record already read from the transport,
// or an end already known — so the engine's puller can hand the loop
// everything in hand as one batch and ship it the moment more would
// mean waiting. Next and Buffered are single-goroutine — the engine's
// puller is the one caller, which is also what makes sharing the
// engine's attrs interner sound. Status and Close are safe from any
// goroutine; Close unblocks a pending Next.
type Source interface {
	Next(rec *Record) error
	Buffered() bool
	Status() Status
	Close() error
}

// Backoff computes jittered exponential reconnect delays: Base doubling
// per consecutive failure up to Max, each delay uniformly jittered in
// [d/2, 3d/2) so a fleet of monitors losing one feed does not redial in
// lockstep. The zero value uses DefaultBase/DefaultMax.
type Backoff struct {
	Base time.Duration
	Max  time.Duration

	fails int
	rng   *rand.Rand
}

// Default backoff bounds: quick first retry, capped well under a BGP
// hold time so a flapping transport is re-probed often enough to matter.
const (
	DefaultBase = 500 * time.Millisecond
	DefaultMax  = 30 * time.Second
)

// Next returns the delay to wait before the next attempt and advances
// the failure count.
func (b *Backoff) Next() time.Duration {
	base, max := b.Base, b.Max
	if base <= 0 {
		base = DefaultBase
	}
	if max <= 0 {
		max = DefaultMax
	}
	d := base
	for i := 0; i < b.fails && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	b.fails++
	if b.rng == nil {
		b.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	// Uniform in [d/2, 3d/2): full-jitter style, never zero.
	return d/2 + time.Duration(b.rng.Int63n(int64(d)))
}

// Reset clears the failure count after a successful (re)connection.
func (b *Backoff) Reset() { b.fails = 0 }

// Fails returns the consecutive-failure count the next delay is derived
// from. Callers use it to decide whether a Reset is even pending
// (rislive resets only after a sustained healthy read window, not on
// the dial itself) and tests assert schedule growth through it.
func (b *Backoff) Fails() int { return b.fails }
