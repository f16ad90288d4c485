package stream

import (
	"fmt"
	"sync/atomic"
	"time"

	"moas/internal/bgp"
	"moas/internal/mrt"
	"moas/internal/source"
	"moas/internal/supervise"
)

// The producer side of the ingest loop (ingest.go), for Replay and Run
// alike. One producer goroutine fills record batches and hands them to the
// ingest loop in feed order over a ring of ringBatches batches:
//
//	producer (framer | puller) ──► batch ring ──► ingest loop ──► shard workers
//
// Only the fill differs. The archive's framer frames each MRT record and
// decodes it as it frames it, straight into the next record slot of a
// batch; a live feed's puller (run.go) takes the records its source has
// already decoded. A batch thus holds decoded records only, whatever the
// feed, and the producer is the only goroutine that interns attribute
// blocks while a feed runs. Decode overlaps apply on a second core; it is
// not split across cores, because a second decode goroutine did not pay
// on measured hosts (docs/OPERATIONS.md, "Decode workers").
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
	// fills — the live feed's setting, which its puller sets.
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

// producer is a feed's side of the ring: the archive's framer or a live
// feed's puller (run.go). Its goroutine (produce) is the only one that
// reads the feed — and, while the feed runs, the engine's interner.
type producer interface {
	// fill appends records to the empty batch b, in feed order, and
	// reports whether b is the feed's last batch: the end of the feed
	// (b.err set, io.EOF for a clean end) or a record that failed to
	// decode (the batch ends at that record, its err set). The ingest
	// loop, not the producer, decides what to do with a failed record
	// (run the day closes its timestamp implies, then fail), so error
	// ordering is position-exact.
	fill(b *decBatch) (last bool)
}

// startProducer runs p on its goroutine over a fresh ring of ringBatches
// batches of n record slots, for Replay and Run alike. Batches arrive on
// out in feed order and go back on free once applied; the ring also
// bounds read-ahead, and the memory parked in it. stage, nil for a live
// feed, receives the ring's occupancy and the producer's end time.
//
// The producer owns the feed until shutdown returns, so a front end
// calls shutdown before it gives the feed up. A live front end closes its
// source first, so that a pending Next returns; shutdown then ends the
// producer's wait for a free batch and drains what it was handing over.
func startProducer(p producer, n int, stage *decStage) (out <-chan *decBatch, free chan<- *decBatch, shutdown func()) {
	o, f := make(chan *decBatch, ringBatches), make(chan *decBatch, ringBatches)
	for range ringBatches {
		f <- newDecBatch(n)
	}
	go produce(p, f, o, stage)
	return o, f, func() {
		close(f)
		for range o {
		}
		if stage != nil {
			stage.occupancy.Store(0)
			stage.end.Store(time.Now().UnixNano())
		}
	}
}

// produce is the producer goroutine body. It fills each free batch and
// ships it, in feed order, until it has shipped the feed's last batch or
// free closes; out holds the whole ring, so no send blocks. A panic in
// fill — a malformed feed tripping a decoder bug — ships as the terminal
// error of the batch in hand, behind the records fill had completed, so
// it fails this feed instead of killing the daemon.
func produce(p producer, free <-chan *decBatch, out chan<- *decBatch, stage *decStage) {
	defer close(out)
	var b *decBatch // the batch in hand
	err := supervise.Run("feed producer", func() error {
		for b = range free {
			if stage != nil {
				stage.occupancy.Store(int64(cap(free) - len(free)))
			}
			b.reset()
			last := p.fill(b)
			out <- b
			if last {
				return nil
			}
		}
		return nil
	})
	if err != nil {
		b.err = err
		out <- b
	}
}

// resumeHeartbeat is how many already-applied records one fill discards
// during a resume skip. Each such fill ships an empty batch, on which the
// ingest loop runs its gate, so a Stop (scenario delete) or a Pause
// (operator or auto-checkpoint park) does not wait for a disk-bound skip
// of the whole resume cursor to finish.
const resumeHeartbeat = 4096

// framer is the archive producer. It frames each record into one reused
// frame buffer and decodes it straight into the batch's next record slot.
type framer struct {
	fr    *mrt.Framer
	dec   source.Decoder
	buf   []byte // the frame body in hand, reused for every record
	next  uint64 // raw archive index of the next record to frame
	skip  uint64 // records below this index were applied before a resume
	stage *decStage
}

func (f *framer) fill(b *decBatch) bool {
	if f.next < f.skip {
		for end := min(f.skip, f.next+resumeHeartbeat); f.next < end; f.next++ {
			// Skip discards bodies without copying them.
			if _, err := f.fr.Skip(); err != nil {
				b.err = fmt.Errorf("stream: resume skip at record %d: %w", f.next, err)
				return true
			}
		}
		return false
	}
	// The framing rate counts from the first framed record, not from a
	// resume skip before it.
	if f.stage.start.Load() == 0 {
		f.stage.start.Store(time.Now().UnixNano())
	}
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
		// The slot joins the batch only once Decode has filled it.
		r := &b.recs[:n+1][n]
		r.Seq = f.next
		r.kind, r.err = f.dec.Decode(&r.Record, h, buf)
		b.recs = b.recs[:n+1]
		if r.err != nil {
			r.err = fmt.Errorf("stream: %w", r.err)
			return true
		}
	}
	return false
}

// decStage is the archive producer's observability handle, published on
// the engine when a replay starts and left in place afterwards so a
// finished replay's stats remain inspectable. It holds counters only —
// never a batch or a ring channel — so a finished replay's ring is
// garbage the moment Replay returns.
type decStage struct {
	start     atomic.Int64  // unix nanos at the first framed record; 0 before
	frames    atomic.Uint64 // MRT records framed (read ahead of the cursor)
	occupancy atomic.Int64  // batches out of the free ring, sampled by the producer
	end       atomic.Int64  // unix nanos at replay return; 0 while running
}
