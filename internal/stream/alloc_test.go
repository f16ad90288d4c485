package stream

import (
	"bytes"
	"testing"

	"moas/internal/bgp"
	"moas/internal/mrt"
	"moas/internal/source"
)

// allocGateArchive builds a small BGP4MP archive whose replay is pure
// steady-state churn once warmed: a fixed peer/prefix/attrs population
// re-announced identically (upsert no-ops on the interned pointer), plus
// withdraw/re-announce flap (node free-list and kernel state recycling),
// with no origin-set or class transitions left after the first pass.
func allocGateArchive(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := mrt.NewWriter(&buf)
	write := func(peerAS bgp.ASN, u *bgp.Update) {
		msg := &mrt.BGP4MPMessage{
			PeerAS:  peerAS,
			LocalAS: 65000,
			Family:  bgp.FamilyIPv4,
			Data:    u.AppendWire(nil),
		}
		msg.PeerIP[15] = byte(peerAS)
		if err := w.WriteBGP4MPMessage(1000, msg); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 4; round++ {
		for i := 0; i < 64; i++ {
			peer := bgp.ASN(64000 + i%4)
			p := bgp.PrefixFromUint32(uint32(10<<24|i<<8), 24)
			u := &bgp.Update{
				NLRI:  []bgp.Prefix{p},
				Attrs: &bgp.Attrs{ASPath: bgp.Seq(peer, 1239, bgp.ASN(64500+i%8))},
			}
			if i%8 == 3 {
				// Flap a slice of the table: withdraw, then the identical
				// re-announcement in the same message stream.
				write(peer, &bgp.Update{Withdrawn: []bgp.Prefix{p}})
			}
			write(peer, u)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// loopReader serves the same bytes over and over, never ending: a source
// built once over it can be drained pass after pass with no per-pass
// setup to allocate.
type loopReader struct {
	data []byte
	off  int
}

func (r *loopReader) Read(p []byte) (int, error) {
	if r.off == len(r.data) {
		r.off = 0
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

// TestSteadyStateDecodeDispatchZeroAlloc is the zero-alloc ingest
// regression gate: once the interner, decode-batch slots, dispatch
// buffers and kernel state are warm, running the full decode+dispatch
// path over the archive — MRT framing, BGP4MP borrow-decode, UPDATE
// decode through the interner, per-op shard routing — must perform
// exactly zero allocations per pass, hence 0 allocs/update. Both routes
// into source.Decoder are gated: the replay pipeline's frame-then-decode
// pair (the work one framer and one decode worker perform on a warm
// batch) and the File source's Next. Shard flush/apply is kept out of the
// measured function (worker timing would make the measurement
// nondeterministic); its steady state is pinned at 0 allocs/op separately
// by BenchmarkShardReassess and the pool-recycling test below.
func TestSteadyStateDecodeDispatchZeroAlloc(t *testing.T) {
	archive := allocGateArchive(t)

	// BatchSize beyond the archive's op count: ops accumulate in pend and
	// are reset between passes, so no flush lands mid-measurement.
	cfg := Config{Shards: 4, BatchSize: 1 << 20}
	gate := func(t *testing.T, e *Engine, pass func()) {
		t.Helper()
		run := func() {
			pass()
			for i := range e.pend {
				e.pend[i] = e.pend[i][:0]
			}
		}
		// Warm: interner misses, slot and pend capacity growth.
		run()
		if e.DistinctAttrs() == 0 || e.Stats().Messages == 0 {
			t.Fatal("gate archive decoded nothing — not exercising the decode path")
		}
		if avg := testing.AllocsPerRun(10, run); avg != 0 {
			t.Fatalf("steady-state decode+dispatch: %.2f allocs per pass, want 0", avg)
		}
	}

	t.Run("worker", func(t *testing.T) {
		e := New(cfg)
		defer e.Close()
		br := bytes.NewReader(archive)
		f := &framer{fr: mrt.NewFramer(br), stage: new(decStage)}
		dec := &source.Decoder{Interner: e.interner}
		b := newDecBatch()
		gate(t, e, func() {
			br.Reset(archive)
			f.fr.Reset(br)
			for terminal := false; !terminal; {
				b.reset()
				terminal = f.fill(b)
				decodeBatch(dec, b)
				for i := range b.recs {
					rec := &b.recs[i]
					if rec.err != nil {
						t.Fatal(rec.err)
					}
					if rec.kind == source.KindUpdate {
						e.ApplyUpdate(0, PeerKey{IP: rec.PeerIP, AS: rec.PeerAS}, &rec.Upd)
					}
				}
			}
		})
	})

	t.Run("file-source", func(t *testing.T) {
		e := New(cfg)
		defer e.Close()
		// Count one pass's updates, then loop the archive forever.
		var rec source.Record
		updates := 0
		for probe := source.NewFileReader(bytes.NewReader(archive), "count", nil); probe.Next(&rec) == nil; {
			updates++
		}
		src := source.NewFileReader(&loopReader{data: archive}, "loop", e.interner)
		gate(t, e, func() {
			for i := 0; i < updates; i++ {
				if err := src.Next(&rec); err != nil {
					t.Fatal(err)
				}
				e.ApplyUpdate(0, PeerKey{IP: rec.PeerIP, AS: rec.PeerAS}, &rec.Upd)
			}
		})
	})
}

// TestFlushShardRecyclesBatches closes the dispatch loop the alloc gate
// leaves out: op slices flushed to a shard must come back through the
// engine pool once the worker has drained them, so sustained replay does
// not allocate a fresh batch per flush.
func TestFlushShardRecyclesBatches(t *testing.T) {
	e := New(Config{Shards: 1, BatchSize: 8})
	defer e.Close()
	p := bgp.MustParsePrefix("10.0.0.0/8")
	peer := PeerKey{IP: [16]byte{1}, AS: 701}
	attrs := &bgp.Attrs{ASPath: bgp.Seq(701, 9)}
	for i := 0; i < 64; i++ {
		e.ApplyUpdate(0, peer, &bgp.Update{NLRI: []bgp.Prefix{p}, Attrs: attrs})
	}
	e.Sync() // every flushed batch has been applied and recycled
	if len(e.opFree) == 0 {
		t.Fatal("no op slices recycled into the engine pool after flushes")
	}
}
