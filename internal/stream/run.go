package stream

import (
	"time"

	"moas/internal/source"
)

// RunOptions tunes a live source run.
type RunOptions struct {
	// OnDayClose, when non-nil, runs on the run goroutine after each
	// observation day closes — serve's auto-checkpoint pacing hook, same
	// contract as ReplayOptions.OnDayClose.
	OnDayClose func(day int)
	// Stop, when non-nil, ends the run once closed: Run closes the source
	// (the run owns its transport) and returns ErrReplayStopped.
	Stop <-chan struct{}
	// Now supplies wall-clock seconds for idle day closes; nil uses the
	// system clock. Tests inject a fake clock here.
	Now func() uint32
	// Ticks triggers one wall-clock check per receive; nil checks once a
	// second. A day whose updates have stopped still closes when the
	// clock crosses midnight, so conflict durations keep extending
	// through silence exactly as the paper's daily snapshots do. Tests
	// inject a channel here to sequence ticks against records.
	Ticks <-chan time.Time
	// CloseFinalDay closes the day in flight when the source ends on its
	// own (io.EOF). Live transports never legitimately EOF — only Close
	// does that — so this matters to file-backed sources and tests.
	CloseFinalDay bool
}

// Run drains a live source into the engine until the source ends or
// opts.Stop closes. It is the continuous-operation sibling of Replay —
// the same ingest loop (ingest.go) over a different producer and clock:
// the puller hands the loop every record the source already holds as one
// batch, updates dispatch as they arrive, and they reach the shards
// whenever the loop's queue runs dry (a session's table transfer is a
// burst of a million updates, which fills record and shard batches; a
// lone update travels alone and is flushed as soon as nothing follows
// it) and before Run returns, whatever ends it. Observation days are
// absolute UTC days (timestamp / 86400) and close when either a record's
// timestamp or the wall clock crosses into a later day. Pause/Resume
// work exactly as with Replay: the run parks between records with every
// shard settled. The record cursor (Records) advances by the source's own
// sequence numbers, so a checkpoint taken mid-run records how far into
// the feed the engine got.
//
// The source's Next runs on the feed's producer goroutine (decode.go),
// the one Replay's framer runs on — the single goroutine its interner
// contract requires — which may run up to ringBatches batches of
// liveBatchLen records ahead of the loop; a paused run parks at a record
// boundary inside its batch, and a stopped run discards that read-ahead.
// A panicking source is the run's terminal error. The run owns its
// transport: it closes the source on return, which is also what unblocks
// the producer when a Stop lands mid-feed.
func (e *Engine) Run(src source.Source, opts *RunOptions) error {
	var o RunOptions
	if opts != nil {
		o = *opts
	}
	if o.Now == nil {
		o.Now = func() uint32 { return uint32(time.Now().Unix()) }
	}
	if o.Ticks == nil {
		ticker := time.NewTicker(time.Second)
		defer ticker.Stop()
		o.Ticks = ticker.C
	}

	e.src.Store(srcBox{src})
	defer e.src.Store(srcBox{})

	out, free, shutdown := startProducer(&puller{src: src, base: e.recs.Load()}, liveBatchLen, nil)
	defer func() {
		src.Close() // a pending Next returns, so the producer can exit
		shutdown()
	}()
	clock := &utcClock{cur: -1, now: o.Now, closeFinal: o.CloseFinalDay}
	err := e.ingest(feed{out: out, free: free, clock: clock, ticks: o.Ticks, stop: o.Stop, onDayClose: o.OnDayClose})
	// The loop flushes only when its queue runs dry, so any exit (end of
	// feed, source error, stop, failure) may leave the last updates it
	// applied pending.
	e.flush()
	return err
}

// liveBatchLen caps a live batch. During a table transfer the puller
// fills whole batches, so the loop takes one channel hop per 64 records
// instead of one per record; a quiet feed's batches carry what one read
// delivered, often a single record. With ringBatches in the ring,
// read-ahead — what a stop discards — is at most 256 records.
const liveBatchLen = 64

// puller is a live feed's producer: it fills a batch with consecutive
// records from src.Next — until the batch is full or src.Buffered says the
// next record would mean waiting — stamping each with the engine cursor it
// advances to (base, the cursor Run started at, plus the source's own
// sequence number). When Next fails, the batch ends the feed with the
// records read so far and the error (io.EOF included); the loop applies
// its records first.
type puller struct {
	src  source.Source
	base uint64
}

func (p *puller) fill(b *decBatch) bool {
	b.flush = true
	for more := true; more && len(b.recs) < cap(b.recs); more = p.src.Buffered() {
		// The slot joins the batch only once Next has filled it.
		n := len(b.recs)
		rec := &b.recs[:n+1][n]
		if err := p.src.Next(&rec.Record); err != nil {
			b.err = err
			return true
		}
		rec.Seq += p.base
		rec.kind = source.KindUpdate
		b.recs = b.recs[:n+1]
	}
	return false
}

// srcBox wraps a source for the engine's atomic src slot: atomic.Value
// requires a consistent concrete type, and the box also lets Run clear
// the slot by storing an empty box.
type srcBox struct{ s source.Source }

// SourceStatus returns the connection state of the live source a Run
// loop is currently draining, or nil when the engine is replay-fed or
// idle. Safe from any goroutine.
func (e *Engine) SourceStatus() *source.Status {
	if b, ok := e.src.Load().(srcBox); ok && b.s != nil {
		st := b.s.Status()
		return &st
	}
	return nil
}
