package kernel

import "slices"

// SnapshotV1 returns s as a version-1 image holds it — every history
// event in full (FullHistory) — for the tests of the version-1 readers:
// AppendSnapshotBinary writes it as version 1 did, the two versions
// differing in the version number and the history bytes alone. The
// kernel itself writes only the current version.
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

// AppendSnapshotBinaryV1 appends s's version-1 binary encoding.
func AppendSnapshotBinaryV1(dst []byte, s *Snapshot) []byte {
	return AppendSnapshotBinary(dst, SnapshotV1(s))
}

// FullHistory is evs as a version-1 binary image carries a history: the
// count, then each event in full, unchecked.
func FullHistory(evs []Event) History {
	if len(evs) == 0 {
		return nil
	}
	return appendEvents(nil, evs)
}
