package kernel

import (
	"encoding/binary"
	"slices"

	"moas/internal/binenc"
)

// SnapshotV1 returns s as a version-1 image holds it — every history
// event in full (FullHistory) — for the tests of the version-1 readers:
// AppendSnapshotBinaryOld writes it as version 1 did. The kernel itself
// writes only the current version.
func SnapshotV1(s *Snapshot) *Snapshot {
	v1 := *s
	v1.Version = 1
	v1.Prefixes = slices.Clone(s.Prefixes)
	for i := range v1.Prefixes {
		ps := &v1.Prefixes[i]
		evs, err := ps.HistoryEvents()
		if err != nil {
			panic(err)
		}
		ps.History = FullHistory(evs)
	}
	return &v1
}

// AppendSnapshotBinaryOld appends s's binary encoding as version 1 or 2
// wrote it: the sections of the current version — s must already be in
// its version's form, SnapshotV1's for version 1 — followed by the frame
// of the retained event log those versions ended with, holding log. After
// a current-version image, that frame is the trailing section its reader
// refuses.
func AppendSnapshotBinaryOld(dst []byte, s *Snapshot, log []Event) []byte {
	dst = AppendSnapshotBinary(dst, s)
	start := len(dst)
	dst = appendEvents(binenc.BeginFrame(dst), log)
	return binenc.EndFrame(dst, start)
}

// AppendSnapshotBinaryV1 appends s's version-1 binary encoding, with an
// empty event log.
func AppendSnapshotBinaryV1(dst []byte, s *Snapshot) []byte {
	return AppendSnapshotBinaryOld(dst, SnapshotV1(s), nil)
}

// FullHistory is evs as a version-1 binary image carries a history: the
// count, then each event in full, unchecked.
func FullHistory(evs []Event) History {
	if len(evs) == 0 {
		return nil
	}
	return appendEvents(nil, evs)
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
