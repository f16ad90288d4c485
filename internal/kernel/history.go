package kernel

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

	"moas/internal/bgp"
	"moas/internal/binenc"
)

// history is one prefix's retained lifecycle events, oldest first, in the
// form a checkpoint writes them (appendEvent), back to back in
// buf[head:]. A running monitor accumulates events, not table, and as an
// Event struct each one is 104 bytes plus two origin arrays the collector
// traces on every cycle; encoded, a start or end event is some 23 bytes
// the collector never looks at, and the snapshot carries them as they
// are. Only a reader of one prefix's history (Kernel.State) decodes.
type history struct {
	buf []byte
	// head is where the oldest retained event starts: eviction at
	// Options.HistoryCap advances it past one event, and the dead bytes
	// before it are reclaimed once they outweigh the live ones, so a
	// prefix flapping at the cap pays O(1) amortized per event.
	head uint32
	n    uint32 // retained events
}

func (h *history) live() []byte { return h.buf[h.head:] }

// push appends ev and returns the bytes it took.
func (h *history) push(ev *Event) int {
	before := len(h.buf)
	h.buf = appendEvent(h.buf, ev)
	h.n++
	return len(h.buf) - before
}

// evict drops the oldest event and returns the bytes it held.
func (h *history) evict() int {
	live := h.live()
	r := binenc.NewReader(live)
	scanEvents(r, 1)
	size := len(live) - r.Len()
	h.head += uint32(size)
	h.n--
	if int(h.head) > len(live)-size {
		h.buf = h.buf[:copy(h.buf, live[size:])]
		h.head = 0
	}
	return size
}

// image appends the history's snapshot form to *arena and returns it as a
// full-capacity sub-slice; an arena too small only costs an allocation.
func (h *history) image(arena *[]byte) History {
	if h.n == 0 {
		return nil
	}
	off := len(*arena)
	*arena = append(binary.AppendUvarint(*arena, uint64(h.n)), h.live()...)
	return History((*arena)[off:len(*arena):len(*arena)])
}

// restore loads img's most recent limit events (all of them when limit is
// zero) into an empty history, each checked and re-encoded: whatever
// bytes the image arrived in, the kernel retains the canonical ones and
// no claim on the image.
func (h *history) restore(img History, limit int) error {
	r := binenc.NewReader(img)
	n := r.Count(minEventBytes)
	if limit > 0 && n > limit {
		scanEvents(r, n-limit)
		n = limit
	}
	if n > 0 {
		// Re-encoding never lengthens: it writes minimal varints.
		h.buf = make([]byte, 0, r.Len())
	}
	var scratch [32]bgp.ASN
	for i := 0; i < n; i++ {
		arena := scratch[:0]
		ev := readEvent(r, &arena)
		if r.Err() != nil {
			break
		}
		if err := validEvent(&ev); err != nil {
			return err
		}
		h.push(&ev)
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("kernel: snapshot history: %w", err)
	}
	if r.Len() != 0 {
		return fmt.Errorf("kernel: snapshot history: %d bytes past its events", r.Len())
	}
	return nil
}

// scanEvents decodes n events off r for their extent alone and returns
// how many origins their sets hold between them.
func scanEvents(r *binenc.Reader, n int) (asns int) {
	var scratch [32]bgp.ASN
	for i := 0; i < n && r.Err() == nil; i++ {
		arena := scratch[:0]
		ev := readEvent(r, &arena)
		asns += len(ev.Origins) + len(ev.PrevOrigins)
	}
	return asns
}

// decodeEvents materializes the n events encoded in b in two
// allocations, whatever n is: the events, and one array all their origin
// sets are carved from, sized by a first pass over the bytes.
func decodeEvents(b []byte, n int) ([]Event, error) {
	r := binenc.NewReader(b)
	asns := scanEvents(r, n)
	if err := r.Err(); err != nil {
		return nil, err
	}
	out := make([]Event, n)
	arena := make([]bgp.ASN, 0, asns)
	r = binenc.NewReader(b)
	for i := range out {
		out[i] = readEvent(r, &arena)
	}
	return out, nil
}

// History is one prefix's retained events as a Snapshot carries them: a
// uvarint count, then that many events in their wire encoding — the
// kernel's own bytes, and byte for byte the history field of the binary
// snapshot, so imaging and encoding a kernel do no per-event work. As
// JSON it is the array of event objects. The zero value is the empty
// history. Restore checks every event and keeps a canonical re-encoding,
// so an image may hold any bytes that decode.
type History []byte

// Len returns the number of events.
func (h History) Len() int {
	if len(h) == 0 {
		return 0
	}
	return binenc.NewReader(h).Count(minEventBytes)
}

// Events decodes the history; nil when it is empty or does not decode.
func (h History) Events() []Event {
	evs, _ := h.events()
	return evs
}

func (h History) events() ([]Event, error) {
	r := binenc.NewReader(h)
	n := r.Count(minEventBytes)
	if n == 0 {
		return nil, r.Err()
	}
	return decodeEvents(h[len(h)-r.Len():], n)
}

// MarshalJSON renders the events as a JSON array.
func (h History) MarshalJSON() ([]byte, error) {
	evs, err := h.events()
	if err != nil {
		return nil, err
	}
	return json.Marshal(evs)
}

// UnmarshalJSON encodes a JSON array of events.
func (h *History) UnmarshalJSON(data []byte) error {
	var evs []Event
	if err := json.Unmarshal(data, &evs); err != nil {
		return err
	}
	*h = nil
	if len(evs) > 0 {
		*h = appendEvents(nil, evs)
	}
	return nil
}

// readHistory cuts one history out of raw, the bytes r reads, after
// walking its events for their extent.
func readHistory(r *binenc.Reader, raw []byte) History {
	start := len(raw) - r.Len()
	n := r.Count(minEventBytes)
	scanEvents(r, n)
	if n == 0 || r.Err() != nil {
		return nil
	}
	return append(History(nil), raw[start:len(raw)-r.Len()]...)
}

// appendHistory writes h as the binary snapshot carries it.
func appendHistory(dst []byte, h History) []byte {
	if len(h) == 0 {
		return append(dst, 0)
	}
	return append(dst, h...)
}
