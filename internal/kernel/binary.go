package kernel

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"moas/internal/bgp"
	"moas/internal/binenc"
	"moas/internal/core"
)

// The binary snapshot format, the one encoding of a Snapshot. Layout:
//
//	magic "MSNP" | uvarint version
//	frame: meta      — uvarint event count
//	frame: prefixes  — uvarint count, then per prefix:
//	                   prefix, origin set, class, uvarint seq,
//	                   varint since
//	frame: conflicts — uvarint count, then per conflict:
//	                   prefix, varint first/last/daysObserved,
//	                   origin set, uvarint class count + varint days
//	frame: spans     — uvarint count, then varint start, varint end
//
// where a prefix is binenc.AppendPrefix's compact form and an origin set
// is a uvarint count followed by uvarint ASNs. Versions 1-3 went on, in
// each prefix entry, with the prefix's retained events: a uvarint count,
// then each event — in version 1 in full (readEvent), in versions 2 and 3
// compact (scanCompact), its prefix and seq those of the entry it belongs
// to. Versions 1 and 2 also ended with a frame of the retained event log
// (a uvarint count and events in full). Their reader checks both and
// drops them (skipHistory, checkLog). Every section is length-prefixed
// (binenc.BeginFrame/EndFrame: written in place, no per-section buffer)
// and every count is validated against the bytes remaining, so truncated
// or fuzzed input fails cleanly. The codec moves values only: a prefix is
// never rendered or parsed on the way through.

// snapshotMagic introduces a binary kernel snapshot.
var snapshotMagic = []byte("MSNP")

func appendASNs(dst []byte, asns []bgp.ASN) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(asns)))
	for _, a := range asns {
		dst = binary.AppendUvarint(dst, uint64(a))
	}
	return dst
}

// carveASNs reserves an n-capacity, zero-length slice at the end of
// *arena, starting a fresh chunk when the current one cannot hold it, so
// a run of small origin sets shares a few backing arrays instead of
// owning one each. The full-capacity bound keeps an append to one
// reservation out of its neighbor's.
func carveASNs(arena *[]bgp.ASN, n int) []bgp.ASN {
	if n == 0 {
		return nil
	}
	if len(*arena)+n > cap(*arena) {
		*arena = make([]bgp.ASN, 0, max(1024, n))
	}
	off := len(*arena)
	*arena = (*arena)[:off+n]
	return (*arena)[off : off : off+n]
}

// readASNs decodes one origin set, carved from *arena.
func readASNs(r *binenc.Reader, arena *[]bgp.ASN) []bgp.ASN {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	out := carveASNs(arena, n)
	for i := 0; i < n; i++ {
		out = append(out, bgp.ASN(r.Uvarint()))
	}
	return out
}

// readEvent decodes one event in full, the form versions 1 and 2 wrote
// per event of the retained log (and version 1 per history event), its
// origin sets carved from *arena. (It returns the event instead of
// filling one in so that a caller's scratch arena can stay on its
// stack.)
func readEvent(r *binenc.Reader, arena *[]bgp.ASN) (ev Event) {
	ev.Type, ev.Day, ev.Seq = EventType(r.Byte()), r.Int(), r.Uvarint()
	ev.Prefix = r.Prefix()
	ev.Origins = readASNs(r, arena)
	ev.PrevOrigins = readASNs(r, arena)
	ev.Class, ev.PrevClass = core.Class(r.Byte()), core.Class(r.Byte())
	return ev
}

// minEventBytes is the shortest event: type, day, seq, a 2-byte /0
// prefix, two empty origin sets, two classes.
const minEventBytes = 9

func readEvents(r *binenc.Reader) []Event {
	n := r.Count(minEventBytes)
	if n == 0 {
		return nil
	}
	out := make([]Event, n)
	var arena []bgp.ASN
	for i := range out {
		out[i] = readEvent(r, &arena)
	}
	return out
}

// checkLog checks the event log a version-1 or version-2 image carries,
// which its reader then drops: the image is refused for an event no
// kernel emits, as it was when the log was restored.
func checkLog(evs []Event) error {
	for i := range evs {
		if err := validEvent(&evs[i]); err != nil {
			return err
		}
	}
	return nil
}

// minCompactBytes is the shortest compact history event of a version-2
// or 3 image: header, day, two empty origin sets.
const minCompactBytes = 4

// scanCompact walks n compact history events off r — each a header byte
// (type-1 in bits 0-1, class in bits 2-4, the previous class in bits
// 5-7), the varint day, the origin set and the previous origin set — and
// errors for the first header that names a class past the known ones
// (two bits always name a valid type). Truncation latches in r.
func scanCompact(r *binenc.Reader, n int) (err error) {
	for i := 0; i < n && r.Err() == nil; i++ {
		if hdr := r.Byte(); err == nil {
			err = cmp.Or(validClass(hdr>>2&7), validClass(hdr>>5))
		}
		r.Varint()
		for set := 0; set < 2; set++ {
			for c := r.Count(1); c > 0; c-- {
				r.Uvarint()
			}
		}
	}
	return err
}

// tooMany rejects a history of n events under a prefix whose ordinal is
// seq: each event took one of the ordinals 1..seq.
func tooMany(n int, seq uint64) error {
	if uint64(n) > seq {
		return fmt.Errorf("kernel: snapshot history holds %d events, but its prefix's ordinal is %d", n, seq)
	}
	return nil
}

// skipHistory reads the history that closes ps's entry in an image of
// version 1-3, checks it and drops it. It errors for a history no kernel
// could have retained: more events than ps has ordinals, a class past the
// known ones, and in version 1, whose events are spelled in full, an
// event of an unknown type, of another prefix, or off the run of
// ordinals that ends at ps.Seq. Truncation latches in r.
func skipHistory(r *binenc.Reader, ps *PrefixSnap, version int) error {
	if version > 1 {
		n := r.Count(minCompactBytes)
		return cmp.Or(scanCompact(r, n), tooMany(n, ps.Seq))
	}
	evs := readEvents(r)
	if err := tooMany(len(evs), ps.Seq); r.Err() != nil || err != nil {
		return err // a latched error is the caller's to report
	}
	first := ps.Seq - uint64(len(evs)) + 1
	for i := range evs {
		ev := &evs[i]
		if err := validEvent(ev); err != nil {
			return err
		}
		if ev.Prefix != ps.Prefix {
			return fmt.Errorf("kernel: snapshot history of %v holds an event of %v", ps.Prefix, ev.Prefix)
		}
		if ev.Seq != first+uint64(i) {
			return fmt.Errorf("kernel: snapshot history of %v (ordinal %d) has event %d at ordinal %d, want %d",
				ps.Prefix, ps.Seq, i, ev.Seq, first+uint64(i))
		}
	}
	return nil
}

// BinarySizeHint estimates s's encoded size — closely from above for the
// AS numbers, days and ordinals of a real table — so an encoder's buffer
// is sized once instead of growing its way up (at full-scan scale the
// growth copies and the GC pressure they cause dominate the encode).
func (s *Snapshot) BinarySizeHint() int {
	const conflictBytes = 48 // a conflict with a handful of origins
	n := 64 + len(s.Conflicts)*conflictBytes + len(s.ClosedSpans)*6
	for i := range s.Prefixes {
		ps := &s.Prefixes[i]
		n += 9 + int(ps.Prefix.Bits()+7)/8 + 4*len(ps.Origins)
	}
	return n
}

// AppendSnapshotBinary appends s's binary encoding to dst.
func AppendSnapshotBinary(dst []byte, s *Snapshot) []byte {
	dst = slices.Grow(dst, s.BinarySizeHint())
	dst = append(dst, snapshotMagic...)
	dst = binary.AppendUvarint(dst, uint64(s.Version))

	dst = binenc.AppendFrame(dst, binary.AppendUvarint(nil, uint64(s.Events)))

	start := len(dst)
	dst = binary.AppendUvarint(binenc.BeginFrame(dst), uint64(len(s.Prefixes)))
	for i := range s.Prefixes {
		dst = appendPrefixSnap(dst, &s.Prefixes[i])
	}
	dst = binenc.EndFrame(dst, start)

	start = len(dst)
	dst = binary.AppendUvarint(binenc.BeginFrame(dst), uint64(len(s.Conflicts)))
	for i := range s.Conflicts {
		cs := &s.Conflicts[i]
		dst = binenc.AppendPrefix(dst, cs.Prefix)
		dst = binary.AppendVarint(dst, int64(cs.FirstDay))
		dst = binary.AppendVarint(dst, int64(cs.LastDay))
		dst = binary.AppendVarint(dst, int64(cs.DaysObserved))
		dst = appendASNs(dst, cs.OriginsEver)
		dst = binary.AppendUvarint(dst, uint64(len(cs.ClassDays)))
		for _, d := range cs.ClassDays {
			dst = binary.AppendVarint(dst, int64(d))
		}
	}
	dst = binenc.EndFrame(dst, start)

	start = len(dst)
	dst = binary.AppendUvarint(binenc.BeginFrame(dst), uint64(len(s.ClosedSpans)))
	for _, sp := range s.ClosedSpans {
		dst = binary.AppendVarint(dst, int64(sp.Start))
		dst = binary.AppendVarint(dst, int64(sp.End))
	}
	return binenc.EndFrame(dst, start)
}

// appendPrefixSnap appends one prefix entry.
func appendPrefixSnap(dst []byte, ps *PrefixSnap) []byte {
	dst = binenc.AppendPrefix(dst, ps.Prefix)
	dst = appendASNs(dst, ps.Origins)
	dst = append(dst, ps.Class)
	dst = binary.AppendUvarint(dst, ps.Seq)
	return binary.AppendVarint(dst, int64(ps.Since))
}

// DecodeSnapshotBinary parses a binary snapshot of any version. Hostile
// input errors; it never panics or over-allocates. The result is in the
// current form — an older image's histories and event log are checked
// and dropped, and its Version is SnapshotVersion — and shares no memory
// with data.
func DecodeSnapshotBinary(data []byte) (*Snapshot, error) {
	if !bytes.HasPrefix(data, snapshotMagic) {
		return nil, fmt.Errorf("kernel: not a binary snapshot (bad magic)")
	}
	r := binenc.NewReader(data[len(snapshotMagic):])
	version := int(r.Uvarint())
	if r.Err() == nil && (version < 1 || version > SnapshotVersion) {
		return nil, fmt.Errorf("kernel: snapshot version %d, want 1-%d", version, SnapshotVersion)
	}
	s := &Snapshot{Version: SnapshotVersion}

	meta := r.Frame()
	s.Events = int(meta.Uvarint())
	if err := cmp.Or(meta.End(), r.Err()); err != nil {
		return nil, fmt.Errorf("kernel: decode binary snapshot meta: %w", err)
	}

	sec := r.Frame()
	// A prefix entry is at least 6 bytes (2-byte prefix, empty origin
	// set, class, seq, since).
	n := sec.Count(6)
	s.Prefixes = slices.Grow(s.Prefixes, n)
	var origins []bgp.ASN
	for i := 0; i < n; i++ {
		ps := PrefixSnap{Prefix: sec.Prefix()}
		ps.Origins = readASNs(sec, &origins)
		ps.Class = sec.Byte()
		ps.Seq = sec.Uvarint()
		ps.Since = sec.Int()
		if version < 4 {
			if err := skipHistory(sec, &ps, version); err != nil {
				return nil, err
			}
		}
		s.Prefixes = append(s.Prefixes, ps)
	}
	// Bytes past the last entry are an entry's history under a version
	// that has none, or damage.
	if err := cmp.Or(sec.End(), r.Err()); err != nil {
		return nil, fmt.Errorf("kernel: decode binary snapshot prefixes: %w", err)
	}

	sec = r.Frame()
	n = sec.Count(7)
	s.Conflicts = slices.Grow(s.Conflicts, n)
	for i := 0; i < n; i++ {
		cs := ConflictSnap{Prefix: sec.Prefix()}
		cs.FirstDay = sec.Int()
		cs.LastDay = sec.Int()
		cs.DaysObserved = sec.Int()
		cs.OriginsEver = readASNs(sec, &origins)
		cs.ClassDays = make([]int, sec.Count(1))
		for j := range cs.ClassDays {
			cs.ClassDays[j] = sec.Int()
		}
		s.Conflicts = append(s.Conflicts, cs)
	}
	if err := cmp.Or(sec.End(), r.Err()); err != nil {
		return nil, fmt.Errorf("kernel: decode binary snapshot conflicts: %w", err)
	}

	sec = r.Frame()
	n = sec.Count(2)
	s.ClosedSpans = slices.Grow(s.ClosedSpans, n)
	for i := 0; i < n; i++ {
		s.ClosedSpans = append(s.ClosedSpans, SpanSnap{Start: sec.Int(), End: sec.Int()})
	}
	if err := cmp.Or(sec.End(), r.Err()); err != nil {
		return nil, fmt.Errorf("kernel: decode binary snapshot spans: %w", err)
	}

	if version < 3 {
		sec = r.Frame()
		log := readEvents(sec)
		if err := cmp.Or(sec.End(), r.Err(), checkLog(log)); err != nil {
			return nil, fmt.Errorf("kernel: decode binary snapshot log: %w", err)
		}
	}
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("kernel: decode binary snapshot: %w", err)
	}
	return s, nil
}
