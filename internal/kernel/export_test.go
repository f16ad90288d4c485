package kernel

import (
	"encoding/binary"

	"moas/internal/bgp"
	"moas/internal/binenc"
)

// AppendSnapshotBinaryOld appends s's binary encoding as version (1-3)
// wrote it: each prefix entry closed by its history in histories (see
// AppendSnapshotBinaryAt; OldHistories gives a kernel's own), and for
// versions 1 and 2 the frame of the retained event log they ended with,
// holding log. The kernel itself writes only the current version; the
// readers of the older ones are what this feeds.
func AppendSnapshotBinaryOld(dst []byte, s *Snapshot, version int, histories map[bgp.Prefix][]byte, log []Event) []byte {
	dst = AppendSnapshotBinaryAt(dst, s, version, histories)
	if version < 3 {
		dst = AppendLogFrame(dst, log)
	}
	return dst
}

// AppendSnapshotBinaryAt appends s's binary encoding under the version
// number given, every prefix entry closed by histories[prefix] — as it
// is, unchecked, an empty history when the map has none — unless
// histories is nil. Forged histories, and a current version with
// histories, are what the reader tests feed it.
func AppendSnapshotBinaryAt(dst []byte, s *Snapshot, version int, histories map[bgp.Prefix][]byte) []byte {
	cur := AppendSnapshotBinary(nil, s)
	r := binenc.NewReader(cur[len(snapshotMagic):])
	r.Uvarint()
	r.Frame() // meta
	r.Frame() // prefixes, rewritten below; conflicts and spans follow as they are
	dst = append(dst, snapshotMagic...)
	dst = binary.AppendUvarint(dst, uint64(version))
	dst = binenc.AppendFrame(dst, binary.AppendUvarint(nil, uint64(s.Events)))
	start := len(dst)
	dst = binary.AppendUvarint(binenc.BeginFrame(dst), uint64(len(s.Prefixes)))
	for i := range s.Prefixes {
		ps := &s.Prefixes[i]
		dst = appendPrefixSnap(dst, ps)
		if histories == nil {
			continue
		}
		if h := histories[ps.Prefix]; len(h) > 0 {
			dst = append(dst, h...)
		} else {
			dst = append(dst, 0)
		}
	}
	dst = binenc.EndFrame(dst, start)
	return append(dst, cur[len(cur)-r.Len():]...)
}

// AppendLogFrame appends the frame of the retained event log versions 1
// and 2 ended with. After a later version's image it is the trailing
// section that version's reader refuses.
func AppendLogFrame(dst []byte, log []Event) []byte {
	start := len(dst)
	dst = appendEvents(binenc.BeginFrame(dst), log)
	return binenc.EndFrame(dst, start)
}

// OldHistories groups log by prefix into histories as an image of version
// (1-3) carried them: FullHistory for version 1, CompactHistory after.
func OldHistories(log []Event, version int) map[bgp.Prefix][]byte {
	byPrefix := make(map[bgp.Prefix][]Event)
	for _, ev := range log {
		byPrefix[ev.Prefix] = append(byPrefix[ev.Prefix], ev)
	}
	out := make(map[bgp.Prefix][]byte, len(byPrefix))
	for p, evs := range byPrefix {
		if version == 1 {
			out[p] = FullHistory(evs)
		} else {
			out[p] = CompactHistory(evs)
		}
	}
	return out
}

// FullHistory is evs as a version-1 image carries a history: the count,
// then each event in full, unchecked.
func FullHistory(evs []Event) []byte { return appendEvents(nil, evs) }

// CompactHistory is evs as a version-2 or 3 image carries a history: the
// count, then each event in the compact form scanCompact walks — a
// header byte of type and classes, the varint day, the origin set and the
// previous origin set — its prefix and ordinal left to its entry.
func CompactHistory(evs []Event) []byte {
	dst := binary.AppendUvarint(nil, uint64(len(evs)))
	for i := range evs {
		ev := &evs[i]
		dst = append(dst, byte(ev.Type-1)|byte(ev.Class)<<2|byte(ev.PrevClass)<<5)
		dst = binary.AppendVarint(dst, int64(ev.Day))
		dst = appendASNs(dst, ev.Origins)
		dst = appendASNs(dst, ev.PrevOrigins)
	}
	return dst
}

// appendEvent is readEvent's inverse: a lifecycle event in full, as
// versions 1 and 2 wrote each event of the retained log and version 1
// each history event.
func appendEvent(dst []byte, ev *Event) []byte {
	dst = append(dst, byte(ev.Type))
	dst = binary.AppendVarint(dst, int64(ev.Day))
	dst = binary.AppendUvarint(dst, ev.Seq)
	dst = binenc.AppendPrefix(dst, ev.Prefix)
	dst = appendASNs(dst, ev.Origins)
	dst = appendASNs(dst, ev.PrevOrigins)
	return append(dst, byte(ev.Class), byte(ev.PrevClass))
}

// appendEvents is readEvents' inverse: a uvarint count, then the events.
func appendEvents(dst []byte, evs []Event) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(evs)))
	for i := range evs {
		dst = appendEvent(dst, &evs[i])
	}
	return dst
}
