package kernel

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"moas/internal/bgp"
	"moas/internal/binenc"
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
// is a uvarint count followed by uvarint ASNs. Versions 1-3, which also
// carried retained events, are refused with binenc.ErrRetired: commit
// a105d34 is the last that reads them. Every section is length-prefixed
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

// DecodeSnapshotBinary parses a binary snapshot of the current version;
// an image of versions 1-3 is refused with binenc.ErrRetired. Hostile
// input errors; it never panics or over-allocates. The result shares no
// memory with data.
func DecodeSnapshotBinary(data []byte) (*Snapshot, error) {
	if !bytes.HasPrefix(data, snapshotMagic) {
		return nil, fmt.Errorf("kernel: not a binary snapshot (bad magic)")
	}
	r := binenc.NewReader(data[len(snapshotMagic):])
	if version := r.Uvarint(); r.Err() == nil && version != SnapshotVersion {
		if version >= 1 && version < SnapshotVersion {
			return nil, binenc.Retired(fmt.Sprintf("kernel snapshot MSNP version %d", version), "a105d34")
		}
		return nil, fmt.Errorf("kernel: snapshot version %d, want %d", version, SnapshotVersion)
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
		s.Prefixes = append(s.Prefixes, ps)
	}
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

	if err := r.End(); err != nil {
		return nil, fmt.Errorf("kernel: decode binary snapshot: %w", err)
	}
	return s, nil
}
