package stream

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"moas/internal/bgp"
	"moas/internal/mrt"
	"moas/internal/source"
	"moas/internal/supervise"
)

// The archive producer: Replay's side of the ingest loop (ingest.go). One
// goroutine walks the archive's MRT framing and decodes each record as it
// frames it, straight into the next record slot of a batch, and hands the
// batches to the ingest loop in archive order:
//
//	framer (frame + decode) ──► batch ring ──► ingest loop ──► shard workers
//
// A replay batch thus holds decoded records only, like a live batch, and
// the framer is the only goroutine that interns attribute blocks while a
// replay runs. Decode overlaps apply on a second core; it is not split
// across cores, because a second decode goroutine did not pay on
// measured hosts (docs/OPERATIONS.md, "Decode workers").
//
// Batches travel a channel ring (free -> fill -> out -> drain -> free), so
// the steady state recycles the same few batches — their record slots'
// Withdrawn/NLRI backing arrays — and the framer's one frame buffer
// forever: zero allocations per record. Everything the engine retains
// from a batch is copied out by value (prefixes, peer keys) or
// canonical-by-construction (interned *bgp.Attrs), so recycling a drained
// batch is safe.

// decBatchLen is the number of records decoded per batch — enough to
// amortize channel handoffs without letting the producer run far ahead of
// a paused or stopping ingest loop.
const decBatchLen = 256

// ringBatches is how many batches a producer and the ingest loop share,
// for a replay and a live feed alike: the producer fills at most
// ringBatches-1 ahead of the batch the loop applies. A deeper ring lets
// the producer run on a core of its own while the loop and the shards
// share the other, which doubles a live transfer's rate when the host
// leaves both cores free and halves it when it does not, so the rate
// would swing from run to run with the host.
const ringBatches = 4

// decRec is one record on its way to the ingest loop, in feed order.
type decRec struct {
	// Seq is the cursor value the loop stores once the record is applied,
	// stamped by the producer: the raw MRT record count for an archive
	// (non-BGP4MP records included), base + the source's own sequence for
	// a live feed. Upd's Withdrawn/NLRI slices are owned by this slot and
	// recycled with the batch; Attrs is interned (stable, shared).
	source.Record
	// kind is what the record holds: a KindSkip record only advances the
	// cursor, a KindMessage one also drives day closes through its
	// timestamp, a KindUpdate one is applied.
	kind source.Kind
	// err is a record-level decode failure. Day closes implied by TS
	// still run first; then the feed fails with this error.
	err error
}

// decBatch is the unit producers hand the ingest loop, and the ring
// element: up to cap(recs) decoded records, in feed order. The final
// batch of a feed carries the terminal error (io.EOF for a clean end).
type decBatch struct {
	recs []decRec
	err  error
	// flush makes the loop flush every shard's pending ops once no batch
	// is queued behind this one, instead of only when a shard batch
	// fills — the live feed's setting.
	flush bool
}

// newDecBatch builds a batch of n record slots, every slot's NLRI and
// Withdrawn slices pre-carved from two shared arrays (full-capacity
// sub-slices, so a long update that outgrows its slot reallocates
// privately without bleeding into a neighbor). Pre-carving replaces ~2
// first-use allocations per slot per replay with 3 per batch.
func newDecBatch(n int) *decBatch {
	const nlriCap, wdCap = 24, 8
	recs := make([]decRec, n)
	nlri := make([]bgp.Prefix, n*nlriCap)
	wd := make([]bgp.Prefix, n*wdCap)
	for i := range recs {
		recs[i].Upd.NLRI = nlri[i*nlriCap : i*nlriCap : (i+1)*nlriCap]
		recs[i].Upd.Withdrawn = wd[i*wdCap : i*wdCap : (i+1)*wdCap]
	}
	return &decBatch{recs: recs[:0]}
}

// reset empties a recycled batch, keeping every backing array.
func (b *decBatch) reset() {
	b.err, b.recs = nil, b.recs[:0]
}

// framer is the archive producer: the only goroutine that touches the
// reader, the decoder and (while the replay runs) the engine's interner,
// and the order it hands batches to the ingest loop is archive order.
type framer struct {
	fr    *mrt.Framer
	dec   source.Decoder
	buf   []byte // the frame body in hand, reused for every record
	next  uint64 // raw archive index of the next record to frame
	stage *decStage
}

// fill frames and decodes records into b's slots until the batch is full
// or the feed ends; it returns true when the batch is the feed's last.
// That is the end of the stream (b.err set, io.EOF for a clean end) or a
// record that fails to decode: the batch ends at that record with its err
// set, and the ingest loop, not the framer, decides what to do with it
// (run the day closes its timestamp implies, then fail), so error
// ordering is position-exact.
func (f *framer) fill(b *decBatch) bool {
	// A reslice, never a grow: growing would lose newDecBatch's pre-carved
	// slots.
	for n := len(b.recs); n < cap(b.recs); n++ {
		h, buf, err := f.fr.NextInto(f.buf[:0])
		if err != nil {
			b.err = err
			return true
		}
		f.buf = buf
		f.next++
		f.stage.frames.Add(1)
		b.recs = b.recs[:n+1]
		r := &b.recs[n]
		r.Seq = f.next
		if r.kind, r.err = f.dec.Decode(&r.Record, h, buf); r.err != nil {
			r.err = fmt.Errorf("stream: %w", r.err)
			return true
		}
	}
	return false
}

// run is the framing goroutine body. Every batch — record batches, skip
// heartbeats and terminal batches alike — goes to the ingest loop in
// exactly the order the framer read the archive. out holds the whole
// ring, so no send blocks; the framer waits only for a free batch. Every
// exit path either delivers a terminal batch or was ordered to quit (done
// closed), so the loop never waits on a dead producer.
func (f *framer) run(skip uint64, free, out chan *decBatch, done <-chan struct{}) {
	take := func() *decBatch {
		select {
		case b := <-free:
			f.stage.occupancy.Store(int64(cap(free) - len(free)))
			b.reset()
			return b
		case <-done:
			return nil
		}
	}
	for ; f.next < skip; f.next++ {
		// Surface periodically during a deep resume skip: an empty batch
		// lets the ingest loop run its gate, so a Stop (scenario delete) or
		// a Pause (operator or auto-checkpoint park) does not wait for a
		// disk-bound skip of the whole resume cursor to finish.
		if f.next%4096 == 0 && f.next > 0 {
			b := take()
			if b == nil {
				return
			}
			out <- b
		}
		// Skip discards bodies without copying them.
		if _, err := f.fr.Skip(); err != nil {
			if b := take(); b != nil {
				b.err = fmt.Errorf("stream: resume skip at record %d: %w", f.next, err)
				out <- b
			}
			return
		}
	}
	for {
		b := take()
		if b == nil {
			return
		}
		terminal := f.fill(b)
		out <- b
		if terminal {
			return
		}
	}
}

// decStage is the archive producer's observability handle, published on
// the engine when a replay starts and left in place afterwards so a
// finished replay's stats remain inspectable. It holds counters only —
// never a batch or a ring channel — so a finished replay's ring is
// garbage the moment Replay returns.
type decStage struct {
	start     time.Time
	frames    atomic.Uint64 // MRT records framed (read ahead of the cursor)
	occupancy atomic.Int64  // batches out of the free ring, sampled by the framer
	end       atomic.Int64  // unix nanos at replay return; 0 while running
}

// startDecode launches the archive producer over r, discarding the first
// skip records (a resume cursor). Batches arrive on out in archive order
// and go back on free once drained. The framer owns r until shutdown
// returns, which the caller must invoke before giving r up. It runs under
// supervise: a panic records the engine failure (waking the ingest loop)
// instead of killing the process.
func (e *Engine) startDecode(r io.Reader, skip uint64) (out, free chan *decBatch, shutdown func()) {
	// The ring also bounds decode read-ahead (and the memory parked in it).
	free = make(chan *decBatch, ringBatches)
	for i := 0; i < ringBatches; i++ {
		free <- newDecBatch(decBatchLen)
	}
	out = make(chan *decBatch, ringBatches)
	done, exited := make(chan struct{}), make(chan struct{})
	stage := &decStage{start: time.Now()}
	e.dec.Store(stage)
	f := &framer{fr: mrt.NewFramer(r), dec: source.Decoder{Interner: e.interner}, stage: stage}
	supervise.Go("mrt framer", func() error { f.run(skip, free, out, done); return nil }, func(err error) {
		e.recordFailure(err)
		close(exited)
	})
	return out, free, func() {
		close(done)
		<-exited
		stage.occupancy.Store(0)
		stage.end.Store(time.Now().UnixNano())
	}
}
