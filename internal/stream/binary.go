package stream

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"moas/internal/bgp"
	"moas/internal/binenc"
	"moas/internal/kernel"
)

// The binary checkpoint format — the one encoding of Checkpoint, which
// the daemon writes to disk and serves over its API alike.
//
// The container carries its own format version after the magic, separate
// from the Checkpoint struct version it stores:
//
//	container v1 (legacy: read, never written — the committed
//	testdata/checkpoint_v1.mckpt pins it):
//	  magic "MCKP" | uvarint struct version
//	  frame: cursor — varint lastClosedDay, uvarint messages/ops/records
//	  frame: kernel — the kernel snapshot in its own binary format
//	  frame: routes — uvarint prefix count, then per prefix:
//	                  prefix, uvarint route count, then per route:
//	                  16-byte peer IP, uvarint peer AS,
//	                  uvarint length + raw attribute wire bytes
//
//	container v2 (written by AppendCheckpointBinary):
//	  magic "MCKP" | uvarint 2 | uvarint struct version
//	  frame: cursor — as v1
//	  frame: kernel — as v1
//	  frame: attrs — uvarint block count, then per block:
//	                 uvarint length + raw attribute wire bytes
//	  frame: routes — uvarint prefix count, then per prefix:
//	                  prefix, uvarint route count, then per route:
//	                  16-byte peer IP, uvarint peer AS,
//	                  uvarint attrs-block index
//
// v2 exploits the same redundancy the ingest interner does: a table's
// routes share a small set of distinct attribute blocks, so each block is
// written once and routes reference it by index — most of a v1
// checkpoint's bytes were those blocks repeated per route. The v1 value
// in the version slot can never be 2 (it was the struct version, fixed at
// 1), so one uvarint read disambiguates the containers: archives mixing
// v1 and v2 files all restore. Readers insert entry by entry, so none
// depends on the order of entries inside a section; the writer's order is
// the image's (Prefix.Compare).

// checkpointMagic introduces a binary engine checkpoint.
var checkpointMagic = []byte("MCKP")

// checkpointContainerV2 is the container format version introduced with
// the shared attrs-block table.
const checkpointContainerV2 = 2

// AppendCheckpointBinary appends ck's binary encoding — container v2,
// with the shared attrs-block table — to dst, sizing dst once.
func AppendCheckpointBinary(dst []byte, ck *Checkpoint) ([]byte, error) {
	if ck.Kernel == nil {
		return nil, fmt.Errorf("stream: checkpoint has no kernel snapshot")
	}
	// First pass: the distinct attribute blocks in first-use order, and
	// the section sizes. Blocks are told apart by content, not by the
	// array they alias: two shards each serialize a block both hold, and
	// the bytes must not depend on the shard count.
	blockIdx := make(map[string]uint64, 256)
	size := 64
	for i := range ck.Routes {
		pr := &ck.Routes[i]
		for j := range pr.Routes {
			a := pr.Routes[j].Attrs
			if _, ok := blockIdx[string(a)]; !ok {
				blockIdx[string(a)] = uint64(len(blockIdx))
				size += len(a) + 3
			}
		}
		// Compact prefix, route count, then per route 16 address bytes and
		// two uvarints (AS, block index) of at most 5 and 3 bytes.
		size += 4 + int(pr.Prefix.Bits()+7)/8 + 24*len(pr.Routes)
	}

	dst = slices.Grow(dst, size+ck.Kernel.BinarySizeHint())
	dst = append(dst, checkpointMagic...)
	dst = binary.AppendUvarint(dst, checkpointContainerV2)
	dst = binary.AppendUvarint(dst, uint64(ck.Version))

	start := len(dst)
	dst = binary.AppendVarint(binenc.BeginFrame(dst), int64(ck.LastClosedDay))
	dst = binary.AppendUvarint(dst, ck.Messages)
	dst = binary.AppendUvarint(dst, ck.Ops)
	dst = binary.AppendUvarint(dst, ck.Records)
	dst = binenc.EndFrame(dst, start)

	start = len(dst)
	dst = kernel.AppendSnapshotBinary(binenc.BeginFrame(dst), ck.Kernel)
	dst = binenc.EndFrame(dst, start)

	blocks := make([]string, len(blockIdx)) // the map's keys, by index
	for a, i := range blockIdx {
		blocks[i] = a
	}
	start = len(dst)
	dst = binary.AppendUvarint(binenc.BeginFrame(dst), uint64(len(blocks)))
	for _, a := range blocks {
		dst = binary.AppendUvarint(dst, uint64(len(a)))
		dst = append(dst, a...)
	}
	dst = binenc.EndFrame(dst, start)

	start = len(dst)
	dst = binary.AppendUvarint(binenc.BeginFrame(dst), uint64(len(ck.Routes)))
	for i := range ck.Routes {
		pr := &ck.Routes[i]
		dst = binenc.AppendPrefix(dst, pr.Prefix)
		dst = binary.AppendUvarint(dst, uint64(len(pr.Routes)))
		for j := range pr.Routes {
			rt := &pr.Routes[j]
			dst = append(dst, rt.PeerIP[:]...)
			dst = binary.AppendUvarint(dst, uint64(rt.PeerAS))
			dst = binary.AppendUvarint(dst, blockIdx[string(rt.Attrs)])
		}
	}
	return binenc.EndFrame(dst, start), nil
}

// DecodeCheckpointBinary parses a binary checkpoint — either container
// version — and validates its struct version. Hostile input errors; it
// never panics or over-allocates. The result's attribute blocks alias
// data (NewFromCheckpoint copies what the engine keeps).
func DecodeCheckpointBinary(data []byte) (*Checkpoint, error) {
	if !bytes.HasPrefix(data, checkpointMagic) {
		return nil, fmt.Errorf("stream: not a binary checkpoint (bad magic)")
	}
	r := binenc.NewReader(data[len(checkpointMagic):])
	// Container v1 stored the struct version (always 1) in this slot, so
	// the value doubles as the container discriminator.
	v2 := false
	ck := &Checkpoint{Version: int(r.Uvarint())}
	if r.Err() == nil && ck.Version == checkpointContainerV2 {
		v2 = true
		ck.Version = int(r.Uvarint())
	}
	if r.Err() == nil && ck.Version != CheckpointVersion {
		return nil, fmt.Errorf("stream: checkpoint version %d, want %d", ck.Version, CheckpointVersion)
	}

	cur := r.Frame()
	ck.LastClosedDay = cur.Int()
	ck.Messages = cur.Uvarint()
	ck.Ops = cur.Uvarint()
	ck.Records = cur.Uvarint()
	if err := cmp.Or(cur.End(), r.Err()); err != nil {
		return nil, fmt.Errorf("stream: decode checkpoint cursor: %w", err)
	}

	ksec := r.Frame()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("stream: decode checkpoint kernel: %w", err)
	}
	snap, err := kernel.DecodeSnapshotBinary(ksec.Bytes(ksec.Len()))
	if err != nil {
		return nil, err
	}
	ck.Kernel = snap

	// v2: the shared attrs-block table the route entries index into.
	var blocks []WireAttrs
	if v2 {
		asec := r.Frame()
		blocks = make([]WireAttrs, asec.Count(1))
		for i := range blocks {
			blocks[i] = asec.Bytes(asec.Count(1))
		}
		if err := cmp.Or(asec.End(), r.Err()); err != nil {
			return nil, fmt.Errorf("stream: decode checkpoint attrs table: %w", err)
		}
	}

	sec := r.Frame()
	// A route entry is at least 3 bytes (2-byte prefix, zero routes).
	n := sec.Count(3)
	ck.Routes = slices.Grow(ck.Routes, n)
	for i := 0; i < n; i++ {
		pr := PrefixRoutes{Prefix: sec.Prefix()}
		// Minimum bytes per route: 16-byte IP + AS + (v1: empty attrs
		// length | v2: block index) = 18 either way.
		pr.Routes = make([]PeerRouteSnap, sec.Count(18))
		for j := range pr.Routes {
			rt := &pr.Routes[j]
			copy(rt.PeerIP[:], sec.Bytes(len(rt.PeerIP)))
			rt.PeerAS = bgp.ASN(sec.Uvarint())
			if !v2 {
				rt.Attrs = sec.Bytes(sec.Count(1))
			} else if idx := sec.Uvarint(); idx < uint64(len(blocks)) {
				rt.Attrs = blocks[idx]
			} else if sec.Err() == nil {
				return nil, fmt.Errorf("stream: checkpoint attrs index %d beyond %d-block table", idx, len(blocks))
			}
		}
		ck.Routes = append(ck.Routes, pr)
	}
	if err := cmp.Or(sec.End(), r.Err()); err != nil {
		return nil, fmt.Errorf("stream: decode checkpoint routes: %w", err)
	}
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("stream: decode binary checkpoint: %w", err)
	}
	return ck, nil
}
