package kernel

import (
	"cmp"
	"encoding/binary"
	"fmt"

	"moas/internal/bgp"
	"moas/internal/binenc"
	"moas/internal/core"
)

// history is one prefix's retained lifecycle events, oldest first, in
// their compact form (appendCompact), back to back in buf[head:]. A
// running monitor accumulates events, not table, and as an Event struct
// each one is 104 bytes plus two origin arrays the collector traces on
// every cycle; compact, a start or end event is some 11 bytes the
// collector never looks at, and the snapshot carries them as they are.
// An event leaves out what its owner already holds: the prefix is the
// table's key, and the ordinal of event i of n is the prefix's seq minus
// n-1-i, because every emitted event takes the next one. Only a reader of
// one prefix's history (Kernel.State) decodes.
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
	h.buf = appendCompact(h.buf, ev)
	h.n++
	return len(h.buf) - before
}

// evict drops the oldest event and returns the bytes it held.
func (h *history) evict() int {
	live := h.live()
	r := binenc.NewReader(live)
	scanCompact(r, 1)
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

// restore loads img, the history of a prefix whose ordinal is seq, into
// an empty history: its most recent limit events (all of them when limit
// is zero), checked and re-encoded, so whatever bytes the image arrived
// in, the kernel retains the canonical ones and no claim on the image.
func (h *history) restore(img History, seq uint64, limit int) error {
	n, err := img.check(seq)
	if err != nil {
		return err
	}
	r := binenc.NewReader(img)
	r.Count(minCompactBytes)
	if limit > 0 && n > limit {
		scanCompact(r, n-limit)
		n = limit
	}
	if n > 0 {
		// Re-encoding never lengthens: it writes minimal varints.
		h.buf = make([]byte, 0, r.Len())
	}
	var scratch [32]bgp.ASN
	for i := 0; i < n; i++ {
		arena := scratch[:0]
		ev := readCompact(r, &arena)
		h.push(&ev)
	}
	return nil
}

// appendCompact and readCompact are the form of an event in a prefix's
// history: a header byte — type-1 in bits 0-1, class in bits 2-4, the
// previous class in bits 5-7 — then the varint day, the origin set and
// the previous origin set. The prefix and the ordinal are the owner's to
// supply (see history).
func appendCompact(dst []byte, ev *Event) []byte {
	dst = append(dst, byte(ev.Type-1)|byte(ev.Class)<<2|byte(ev.PrevClass)<<5)
	dst = binary.AppendVarint(dst, int64(ev.Day))
	dst = appendASNs(dst, ev.Origins)
	return appendASNs(dst, ev.PrevOrigins)
}

// readCompact decodes one compact event but its prefix and ordinal, its
// origin sets carved from *arena.
func readCompact(r *binenc.Reader, arena *[]bgp.ASN) (ev Event) {
	hdr := r.Byte()
	ev.Type, ev.Class, ev.PrevClass = EventType(hdr&3+1), core.Class(hdr>>2&7), core.Class(hdr>>5)
	ev.Day = r.Int()
	ev.Origins = readASNs(r, arena)
	ev.PrevOrigins = readASNs(r, arena)
	return ev
}

// minCompactBytes is the shortest compact event: header, day, two empty
// origin sets.
const minCompactBytes = 4

// scanCompact walks n compact events off r for their extent alone and
// returns how many origins their sets hold between them, or an error for
// the first header that names a class past the known ones (two bits
// always name a valid type). Truncation latches in r.
func scanCompact(r *binenc.Reader, n int) (asns int, err error) {
	for i := 0; i < n && r.Err() == nil; i++ {
		if hdr := r.Byte(); err == nil {
			err = cmp.Or(validClass(hdr>>2&7), validClass(hdr>>5))
		}
		r.Varint()
		for set := 0; set < 2; set++ {
			c := r.Count(1)
			asns += c
			for ; c > 0; c-- {
				r.Uvarint()
			}
		}
	}
	return asns, err
}

// tooMany rejects a history of n events under a prefix whose ordinal is
// seq: each event took one of the ordinals 1..seq.
func tooMany(n int, seq uint64) error {
	if uint64(n) > seq {
		return fmt.Errorf("kernel: snapshot history holds %d events, but its prefix's ordinal is %d", n, seq)
	}
	return nil
}

// decodeCompact materializes the n compact events in b, the history of
// prefix p whose newest event is ordinal seq, in two allocations,
// whatever n is: the events, and one array all their origin sets are
// carved from, sized by a first pass over the bytes.
func decodeCompact(b []byte, n int, p bgp.Prefix, seq uint64) ([]Event, error) {
	r := binenc.NewReader(b)
	asns, err := scanCompact(r, n)
	if err == nil {
		err = r.Err()
	}
	if err != nil {
		return nil, err
	}
	out := make([]Event, n)
	arena := make([]bgp.ASN, 0, asns)
	r = binenc.NewReader(b)
	for i := range out {
		out[i] = readCompact(r, &arena)
		out[i].Prefix, out[i].Seq = p, seq-uint64(n-1-i)
	}
	return out, nil
}

// History is one prefix's retained events as a Snapshot carries them: a
// uvarint count, then that many events in their compact form — the
// kernel's own bytes, and byte for byte the history field of the binary
// snapshot, so imaging and encoding a kernel do no per-event work. An
// event holds neither its prefix nor its ordinal: they are its
// PrefixSnap's (PrefixSnap.HistoryEvents). The zero value is the empty
// history. Restore checks every event and keeps a canonical re-encoding,
// so an image may hold any bytes that decode to a possible history.
type History []byte

// Len returns the number of events.
func (h History) Len() int {
	if len(h) == 0 {
		return 0
	}
	return binenc.NewReader(h).Count(minCompactBytes)
}

// check walks the history of a prefix whose ordinal is seq and returns
// its event count; it errors unless every event decodes, nothing follows
// them, and there are no more of them than seq has ordinals for.
func (h History) check(seq uint64) (int, error) {
	if len(h) == 0 {
		return 0, nil
	}
	r := binenc.NewReader(h)
	n := r.Count(minCompactBytes)
	_, err := scanCompact(r, n)
	switch {
	case r.Err() != nil:
		err = r.Err()
	case err != nil:
	case r.Len() != 0:
		err = fmt.Errorf("%d bytes past its events", r.Len())
	}
	if err != nil {
		return 0, fmt.Errorf("kernel: snapshot history: %w", err)
	}
	return n, tooMany(n, seq)
}

// HistoryEvents decodes the prefix's retained events, each given the
// prefix and the ordinal its position implies; nil when there are none.
func (ps *PrefixSnap) HistoryEvents() ([]Event, error) {
	n, err := ps.History.check(ps.Seq)
	if n == 0 || err != nil {
		return nil, err
	}
	r := binenc.NewReader(ps.History)
	r.Count(minCompactBytes)
	return decodeCompact(ps.History[len(ps.History)-r.Len():], n, ps.Prefix, ps.Seq)
}

// compactHistory checks the events of a version-1 image's history —
// each in full — against the prefix state ps that owns them, and returns
// them in the compact form. Every event must be of a known type and
// class, name ps's prefix, and carry the next ordinal, the last of them
// ps.Seq: an image that lists anything else was never a kernel's.
func compactHistory(ps *PrefixSnap, evs []Event) (History, error) {
	if len(evs) == 0 {
		return nil, nil
	}
	if err := tooMany(len(evs), ps.Seq); err != nil {
		return nil, err
	}
	first := ps.Seq - uint64(len(evs)-1)
	h := binary.AppendUvarint(nil, uint64(len(evs)))
	for i := range evs {
		ev := &evs[i]
		if err := validEvent(ev); err != nil {
			return nil, err
		}
		if ev.Prefix != ps.Prefix {
			return nil, fmt.Errorf("kernel: snapshot history of %v holds an event of %v", ps.Prefix, ev.Prefix)
		}
		if ev.Seq != first+uint64(i) {
			return nil, fmt.Errorf("kernel: snapshot history of %v (ordinal %d) has event %d at ordinal %d, want %d",
				ps.Prefix, ps.Seq, i, ev.Seq, first+uint64(i))
		}
		h = appendCompact(h, ev)
	}
	return h, nil
}

// readHistory cuts the history of ps out of raw, the bytes r reads: in a
// version-2 image, the compact bytes as they are, after one scan that
// checks them; in a version-1 image, the events in full, checked and
// compacted.
func readHistory(r *binenc.Reader, raw []byte, ps *PrefixSnap, version int) (History, error) {
	if version == 1 {
		evs := readEvents(r)
		if r.Err() != nil {
			return nil, nil // the caller reports the latched error
		}
		return compactHistory(ps, evs)
	}
	start := len(raw) - r.Len()
	n := r.Count(minCompactBytes)
	_, err := scanCompact(r, n)
	if err == nil {
		err = tooMany(n, ps.Seq)
	}
	if n == 0 || r.Err() != nil || err != nil {
		return nil, err
	}
	return append(History(nil), raw[start:len(raw)-r.Len()]...), nil
}

// appendHistory writes h as the binary snapshot carries it.
func appendHistory(dst []byte, h History) []byte {
	if len(h) == 0 {
		return append(dst, 0)
	}
	return append(dst, h...)
}
