package stream

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"moas/internal/bgp"
	"moas/internal/mrt"
	"moas/internal/source"
	"moas/internal/supervise"
)

// The archive producer: Replay's side of the ingest loop (ingest.go). An
// archive is framed by one goroutine and decoded by N, so replay
// throughput is not capped at one core's decode rate:
//
//	framing ─┬─► decode workers ─► batch.ready ─┐
//	         │    (N goroutines)                ▼ (waits on it)
//	         └──────── in framing order ──► ingest loop
//
// The framer walks the archive's MRT framing only — length-prefixed
// header reads, no body decode — accumulating raw frames into
// arena-backed batches. It hands each batch to the workers
// (Config.DecodeWorkers, 0 = GOMAXPROCS), which decode its frames into
// the batch's record slots in parallel, interning attribute blocks
// through the engine's concurrent AttrsInterner, and then, in framing
// order, to the ingest loop, which waits on the batch's ready signal
// before applying it. The loop therefore sees the same records in the
// same order at any worker count — error ordering, resume-skip, the
// record cursor and day-close semantics are byte-for-byte identical. One
// worker is simply N = 1.
//
// Batches travel a channel ring (free -> fill -> work and out -> decode
// -> ready -> drain -> free), so the steady state recycles the same few
// batches — their frame arenas and their record slots' Withdrawn/NLRI
// backing arrays — forever: zero allocations per record, per worker.
// Everything the engine retains from a batch is copied out by value
// (prefixes, peer keys) or canonical-by-construction (interned
// *bgp.Attrs), so recycling a drained batch is safe.

const (
	// decBatchLen is the number of records decoded per batch — enough to
	// amortize channel handoffs without letting the decode stage run far
	// ahead of a paused or stopping ingest loop.
	decBatchLen = 256
	// decBatchBufCap ends a frame batch early once its body arena holds
	// this many bytes, so a run of giant records cannot park megabytes in
	// every ring slot.
	decBatchBufCap = 1 << 19
)

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

// decBatch is the unit producers hand the ingest loop, and the archive
// pipeline's ring element: the framing goroutine fills first/hdrs/offs/
// buf (raw frames in one arena), a decode worker turns those frames into
// recs and signals ready. A live producer uses only recs, err and flush,
// and clears ready.
// The final batch of a feed carries the terminal error (io.EOF for a
// clean end).
type decBatch struct {
	first uint64       // raw archive index of hdrs[0]
	hdrs  []mrt.Header // frame headers, in order
	offs  []int        // frame i's body is buf[offs[i-1]:offs[i]] (offs[-1] = 0)
	buf   []byte       // frame body arena, recycled with the batch
	recs  []decRec
	err   error
	// ready receives once a decode worker has filled recs (capacity 1, so
	// the worker never waits on the loop); nil for a live batch, which
	// reaches the loop already decoded.
	ready chan struct{}
	// flush makes the loop flush every shard's pending ops once no batch
	// is queued behind this one, instead of only when a shard batch
	// fills — the live feed's setting.
	flush bool
}

// newDecBatch builds a batch of n record slots, every slot's NLRI and
// Withdrawn slices pre-carved from two shared arrays (full-capacity
// sub-slices, so a long update that outgrows its slot reallocates
// privately without bleeding into a neighbor). Pre-carving replaces ~2
// first-use allocations per slot per replay with 3 per batch. The frame
// index arrays are sized for a full batch up front and the body arena for
// a typical one, so the first trip around the ring does not grow them
// step by step.
func newDecBatch(n int) *decBatch {
	const nlriCap, wdCap = 24, 8
	recs := make([]decRec, n)
	nlri := make([]bgp.Prefix, n*nlriCap)
	wd := make([]bgp.Prefix, n*wdCap)
	for i := range recs {
		recs[i].Upd.NLRI = nlri[i*nlriCap : i*nlriCap : (i+1)*nlriCap]
		recs[i].Upd.Withdrawn = wd[i*wdCap : i*wdCap : (i+1)*wdCap]
	}
	return &decBatch{
		hdrs:  make([]mrt.Header, 0, n),
		offs:  make([]int, 0, n),
		buf:   make([]byte, 0, n*64),
		recs:  recs[:0],
		ready: make(chan struct{}, 1),
	}
}

// reset empties a recycled batch, keeping every backing array.
func (b *decBatch) reset() {
	b.err = nil
	b.hdrs, b.offs, b.buf, b.recs = b.hdrs[:0], b.offs[:0], b.buf[:0], b.recs[:0]
}

// framer is a single goroutine walking the archive's MRT framing —
// headers and body bytes, no decode — into frame batches. It is the only
// stage that touches the reader, and the order it hands batches to the
// ingest loop is archive order.
type framer struct {
	fr    *mrt.Framer
	next  uint64 // raw archive index of the next record to frame
	stage *decStage
}

// fill frames records into b until the batch is full (by record count or
// arena bytes) or the stream ends; it returns true with b.err set when the
// stream is done (io.EOF for a clean end).
func (f *framer) fill(b *decBatch) bool {
	b.first = f.next
	for len(b.hdrs) < decBatchLen && len(b.buf) < decBatchBufCap {
		h, buf, err := f.fr.NextInto(b.buf)
		if err != nil {
			b.err = err
			return true
		}
		b.buf = buf
		b.hdrs = append(b.hdrs, h)
		b.offs = append(b.offs, len(buf))
		f.next++
		f.stage.frames.Add(1)
	}
	return false
}

// run is the framing goroutine body. Every batch — frame batches, skip
// heartbeats and terminal error batches alike — goes to the decode
// workers and then to the ingest loop, in exactly the order the framer
// read the archive. Both channels hold the whole ring, so neither send
// blocks; the framer waits only for a free batch. Every exit path either
// delivers a terminal batch or was ordered to quit (done closed), so the
// loop never waits on a dead producer.
func (f *framer) run(skip uint64, free, work, out chan *decBatch, done <-chan struct{}) {
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
	send := func(b *decBatch) {
		work <- b
		out <- b
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
			send(b)
		}
		// Skip discards bodies without copying them.
		if _, err := f.fr.Skip(); err != nil {
			if b := take(); b != nil {
				b.err = fmt.Errorf("stream: resume skip at record %d: %w", f.next, err)
				send(b)
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
		send(b)
		if terminal {
			return
		}
	}
}

// decodeBatch is a decode worker's work on one batch: fill b.recs from
// b's frames. A record-level decode failure ends the batch at that record
// with its err set — the ingest loop, not the worker, decides what to do
// with it (run the day closes its timestamp implies, then fail), so error
// ordering is position-exact.
func decodeBatch(dec *source.Decoder, b *decBatch) {
	off := 0
	for i, h := range b.hdrs {
		// A reslice, never a grow: a batch frames at most cap(b.recs)
		// records, and growing would lose newDecBatch's pre-carved slots.
		b.recs = b.recs[:i+1]
		r := &b.recs[i]
		r.Seq = b.first + uint64(i) + 1
		r.kind, r.err = dec.Decode(&r.Record, h, b.buf[off:b.offs[i]])
		if r.err != nil {
			r.err = fmt.Errorf("stream: %w", r.err)
			return
		}
		off = b.offs[i]
	}
}

// decodeRun is a decode worker's body: one of N goroutines turning raw
// frame batches into decoded record batches, in parallel and out of
// order, sharing nothing but the channels and the engine's concurrent
// interner. Workers do not exit on terminal batches — later frames may
// still be in flight with other workers — only when done closes.
func decodeRun(dec *source.Decoder, work <-chan *decBatch, done <-chan struct{}) {
	for {
		select {
		case b := <-work:
			decodeBatch(dec, b)
			b.ready <- struct{}{}
		case <-done:
			return
		}
	}
}

// decStage is the decode pipeline's observability handle, published on
// the engine when a replay starts and left in place afterwards so a
// finished replay's stats remain inspectable. It holds counters only —
// never a batch or a ring channel — so a finished replay's ring is
// garbage the moment Replay returns.
type decStage struct {
	workers   int
	start     time.Time
	frames    atomic.Uint64 // MRT records framed (read ahead of the cursor)
	occupancy atomic.Int64  // batches out of the free ring, sampled by the framer
	end       atomic.Int64  // unix nanos at replay return; 0 while running
}

// startDecode launches the archive pipeline over r, discarding the first
// skip records (a resume cursor). Batches arrive on out in archive order,
// each to be applied once its ready signal has fired, and go back on free
// once drained. The framer and workers own r until shutdown returns,
// which the caller must invoke before giving r up. Every goroutine runs
// under supervise: a panic in one records the engine failure (waking the
// ingest loop) instead of killing the process.
func (e *Engine) startDecode(r io.Reader, skip uint64) (out, free chan *decBatch, shutdown func()) {
	workers := e.cfg.DecodeWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Two batches per worker plus one each for the framer and the loop, so
	// every stage can hold work without starving the others; the ring also
	// bounds decode read-ahead (and the memory parked in it).
	ring := 2*workers + 2
	free = make(chan *decBatch, ring)
	for i := 0; i < ring; i++ {
		free <- newDecBatch(decBatchLen)
	}
	// Every channel holds the whole ring, so no send on one blocks.
	work := make(chan *decBatch, ring)
	out = make(chan *decBatch, ring)
	done := make(chan struct{})
	stage := &decStage{workers: workers, start: time.Now()}
	e.dec.Store(stage)

	var stages sync.WaitGroup
	spawn := func(name string, body func()) {
		stages.Add(1)
		supervise.Go(name, func() error { body(); return nil }, func(err error) {
			e.recordFailure(err)
			stages.Done()
		})
	}
	spawn("mrt framer", func() {
		(&framer{fr: mrt.NewFramer(r), stage: stage}).run(skip, free, work, out, done)
	})
	for i := 0; i < workers; i++ {
		spawn("decode worker", func() {
			decodeRun(&source.Decoder{Interner: e.interner}, work, done)
		})
	}
	return out, free, func() {
		close(done)
		stages.Wait()
		stage.occupancy.Store(0)
		stage.end.Store(time.Now().UnixNano())
	}
}
