package serve

import (
	"errors"
	"sync"

	"moas/internal/source"
	"moas/internal/stream"
)

// Hub fans one engine's conflict lifecycle events out to event-stream
// subscribers. Publish is wired to stream.Config.OnEvent, so it runs on
// the engine's shard worker goroutines and must never block: each
// subscriber owns a buffered channel, and a subscriber whose buffer is
// full when an event arrives is dropped — its channel is closed and the
// drop is counted — rather than back-pressuring detection.
//
// Every published event is stamped with a scenario-wide monotonically
// increasing ID and retained in a small ring buffer, so a dropped or
// reconnecting consumer can resume from its SSE Last-Event-ID instead of
// resynchronizing through the query API — unless it fell further behind
// than the ring remembers, which Subscribe reports as a gap.
type Hub struct {
	mu        sync.Mutex
	subs      map[*Subscriber]struct{}
	published uint64 // events fanned out (conflict events and gaps)
	gaps      uint64 // live-feed delivery gaps published
	dropped   uint64 // subscribers kicked because their buffer overflowed
	closed    bool

	maxSubs int // cap on concurrent subscribers; 0 = unlimited
	lastID  uint64
	// ring retains the most recent events for Last-Event-ID catch-up. It
	// grows to ringCap and then recycles; ringPos is the next write slot.
	ring    []SeqEvent
	ringCap int
	ringPos int
}

// SeqEvent is one published event plus its scenario-wide ID. Exactly one
// of the two payloads is set: Gap non-nil marks a live-feed delivery gap
// (disconnect, session drop) sharing the conflict events' ID space, so a
// resuming subscriber replays gaps in order with the detections around
// them; otherwise Event holds a conflict lifecycle event.
type SeqEvent struct {
	ID    uint64
	Event stream.Event
	Gap   *source.Gap
}

// Subscriber is one event-stream consumer.
type Subscriber struct {
	// C delivers events in publish order. The hub closes it when the
	// subscriber falls behind or the hub shuts down; already-buffered
	// events remain readable after the close.
	C chan SeqEvent
	// Missed counts events that were published after the subscriber's
	// requested resume position but had already left the ring buffer —
	// the client should resynchronize through the query API when it is
	// non-zero.
	Missed uint64
}

// ErrHubFull is returned by Subscribe when the hub's subscriber cap is
// reached; the HTTP layer maps it to 429.
var ErrHubFull = errors.New("serve: subscriber limit reached")

// NewHub returns an empty hub retaining up to ringCap events for resume
// (0 disables the ring) and admitting up to maxSubs concurrent
// subscribers (0 = unlimited).
func NewHub(ringCap, maxSubs int) *Hub {
	return &Hub{subs: make(map[*Subscriber]struct{}), ringCap: ringCap, maxSubs: maxSubs}
}

// startFrom primes the id cursor of a fresh hub (checkpoint restore):
// publishing continues at lastID+1, and a reconnecting client's stale
// Last-Event-ID resolves to a gap report instead of a restarted
// id-space. Call before any Publish.
func (h *Hub) startFrom(lastID uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.lastID == 0 {
		h.lastID = lastID
	}
}

// Subscribe registers a consumer whose channel buffers up to buffer
// events (minimum 1). When resume is true, events still in the ring with
// ID > afterID are delivered first (pre-buffered, so the channel is sized
// to hold them), and Missed reports how many the ring no longer had.
// Subscribing to a closed hub returns a subscriber whose channel is
// already closed.
func (h *Hub) Subscribe(buffer int, afterID uint64, resume bool) (*Subscriber, error) {
	if buffer < 1 {
		buffer = 1
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		s := &Subscriber{C: make(chan SeqEvent, buffer)}
		close(s.C)
		return s, nil
	}
	if h.maxSubs > 0 && len(h.subs) >= h.maxSubs {
		return nil, ErrHubFull
	}
	var pending []SeqEvent
	var missed uint64
	if resume && afterID < h.lastID {
		pending, missed = h.ringSince(afterID)
	}
	// The catch-up pre-fills the channel, so size it with the requested
	// buffer ON TOP of the backlog — otherwise a resumed subscriber
	// starts at exact capacity and the first live Publish drops it.
	s := &Subscriber{C: make(chan SeqEvent, buffer+len(pending)), Missed: missed}
	for _, ev := range pending {
		s.C <- ev
	}
	h.subs[s] = struct{}{}
	return s, nil
}

// ringSince returns the retained events with ID > afterID (oldest first)
// and how many such events the ring has already recycled.
func (h *Hub) ringSince(afterID uint64) ([]SeqEvent, uint64) {
	var out []SeqEvent
	n := len(h.ring)
	for i := 0; i < n; i++ {
		// Oldest first: the slot after ringPos once the ring recycled,
		// index 0 while it is still growing.
		ev := h.ring[(h.ringPos+i)%n]
		if ev.ID > afterID {
			out = append(out, ev)
		}
	}
	missed := h.lastID - afterID - uint64(len(out))
	return out, missed
}

// Unsubscribe removes s and closes its channel. Idempotent, and safe to
// call for a subscriber the hub already dropped.
func (h *Hub) Unsubscribe(s *Subscriber) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.subs[s]; ok {
		delete(h.subs, s)
		close(s.C)
	}
}

// Publish stamps ev with the next ID, retains it in the ring, and
// delivers it to every subscriber without blocking. A subscriber with no
// buffer space left is dropped on the spot.
func (h *Hub) Publish(ev stream.Event) {
	h.publish(SeqEvent{Event: ev})
}

// PublishGap publishes a live-source delivery gap into the same sequenced
// stream as conflict events. Wired to the sources' OnGap callbacks, which
// run on reconnect/session goroutines; like Publish it never blocks.
func (h *Hub) PublishGap(g source.Gap) {
	h.publish(SeqEvent{Gap: &g})
}

func (h *Hub) publish(sev SeqEvent) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.lastID++
	h.published++
	sev.ID = h.lastID
	if sev.Gap != nil {
		h.gaps++
	}
	if h.ringCap > 0 {
		if len(h.ring) < h.ringCap {
			h.ring = append(h.ring, sev)
			h.ringPos = (h.ringPos + 1) % h.ringCap
		} else {
			h.ring[h.ringPos] = sev
			h.ringPos = (h.ringPos + 1) % h.ringCap
		}
	}
	for s := range h.subs {
		select {
		case s.C <- sev:
		default:
			delete(h.subs, s)
			close(s.C)
			h.dropped++
		}
	}
}

// Close drops every subscriber and makes future Subscribes return
// already-closed channels. Called when a scenario is deleted.
func (h *Hub) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for s := range h.subs {
		delete(h.subs, s)
		close(s.C)
	}
}

// HubStats is a point-in-time fan-out summary.
type HubStats struct {
	Subscribers int    `json:"subscribers"`              // currently connected
	Published   uint64 `json:"events_published"`         // events fanned out since creation (incl. gaps)
	Gaps        uint64 `json:"gaps_published,omitempty"` // live-feed delivery gaps published
	Dropped     uint64 `json:"slow_drops"`               // subscribers dropped for falling behind
	LastID      uint64 `json:"last_event_id"`            // most recent event ID (0 before any)
	Buffered    int    `json:"resume_buffered"`          // events currently resumable from the ring
}

// Stats snapshots the hub.
func (h *Hub) Stats() HubStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HubStats{
		Subscribers: len(h.subs),
		Published:   h.published,
		Gaps:        h.gaps,
		Dropped:     h.dropped,
		LastID:      h.lastID,
		Buffered:    len(h.ring),
	}
}
