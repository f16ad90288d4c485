package stream

import (
	"fmt"
	"io"
	"time"

	"moas/internal/source"
)

// The ingest loop: the one place a decoded record becomes applied engine
// state. Replay and Run are front-ends that pick a producer (what fills
// the batch channel) and a day clock (how timestamps become observation
// days) and then call Engine.ingest; pause, stop, day-close and cursor
// semantics therefore cannot differ between an archive and a live feed.

// feed is everything the ingest loop is parameterized by.
type feed struct {
	// out delivers record batches in feed order, the last one carrying the
	// terminal error; a batch with a ready channel is applied only once
	// that receives (its decode worker is done). Drained batches go back
	// to the producer on free, which never blocks (it holds every batch
	// the producer owns).
	out  <-chan *decBatch
	free chan<- *decBatch
	// clock maps timestamps to observation days.
	clock dayClock
	// ticks drives the clock's wall-time closes; nil for an archive, whose
	// days close by record timestamps alone.
	ticks <-chan time.Time
	// stop and onDayClose are the caller's options (either may be nil).
	stop       <-chan struct{}
	onDayClose func(day int)
}

// clockEvent is an occasion on which observation days may fall due.
type clockEvent uint8

const (
	// atRecord: a record stamped ts is about to apply.
	atRecord clockEvent = iota
	// atTick: the feed is being checked against the wall clock (ts unused).
	atTick
	// atEnd: the feed ended cleanly (ts unused).
	atEnd
)

// dayClock decides which observation day an update lands on and which
// days must close first. The loop asks due repeatedly, closing each day
// it yields (and re-running its pause gate) until none is left.
type dayClock interface {
	// due returns the next day to close on this occasion and moves past
	// it; ok is false once no (further) day is due.
	due(ev clockEvent, ts uint32) (day int, ok bool)
	// today returns the day in flight, the one an update applies to.
	today() (int, error)
}

// calendarClock is an archive's clock: observation days are the
// calendar's, in order. A record closes every day whose successor's
// boundary it has reached — quiet observed days included, since a day
// with no updates still extends every active conflict's duration — and
// the end of the archive closes the day in flight and any quiet tail.
type calendarClock struct {
	cal Calendar
	idx int // calendar position currently receiving updates
}

func (c *calendarClock) due(ev clockEvent, ts uint32) (int, bool) {
	var ok bool
	switch ev {
	case atRecord:
		ok = c.idx+1 < len(c.cal.Days) && ts >= c.cal.Times[c.idx+1]
	case atEnd:
		ok = c.idx < len(c.cal.Days)
	}
	if !ok {
		return 0, false
	}
	c.idx++
	return c.cal.Days[c.idx-1], true
}

func (c *calendarClock) today() (int, error) {
	// idx can only reach len(Days) through a crafted resume position (all
	// days closed, records left over); a legitimate checkpoint never
	// produces that, but it must not panic.
	if c.idx >= len(c.cal.Days) {
		return 0, fmt.Errorf("stream: update record beyond the %d-day calendar (bad resume position?)", len(c.cal.Days))
	}
	return c.cal.Days[c.idx], nil
}

// utcClock is a live feed's clock: observation days are absolute UTC days
// (timestamp / 86400), starting at the first record's. A day closes when
// either a record's timestamp or the wall clock crosses into a later one,
// and every intervening day closes with it. A record stamped before the
// day in flight (clock skew on a live feed) closes nothing and lands on
// that day, since closed days are immutable.
type utcClock struct {
	cur        int           // day in flight; -1 until the first record
	now        func() uint32 // wall-clock seconds
	closeFinal bool          // close the day in flight when the feed ends
}

func (c *utcClock) due(ev clockEvent, ts uint32) (int, bool) {
	switch ev {
	case atEnd:
		if !c.closeFinal || c.cur < 0 {
			return 0, false
		}
		c.closeFinal = false
		return c.cur, true
	case atTick:
		// The wall clock closes days only once a record has opened one.
		if c.cur < 0 {
			return 0, false
		}
		ts = c.now()
	}
	day := int(ts / 86400)
	if c.cur < 0 {
		c.cur = day
	}
	if c.cur >= day {
		return 0, false
	}
	c.cur++
	return c.cur - 1, true
}

func (c *utcClock) today() (int, error) { return c.cur, nil }

// ingest drains f.out into the engine until the feed ends, fails or is
// stopped. Per record, in this order: the pause/stop gate; every day close
// the record's timestamp implies, gating again after each one (OnDayClose
// is where callers pause, and the record in hand belongs to the new day —
// parking there keeps a paused view exactly at the just-closed day, with
// the cursor not yet counting the record, so a checkpoint taken at that
// park re-reads and applies it on resume); the record's own decode error,
// if any; the update (with a live batch's flush once the queue is empty);
// the cursor. A clean end of feed closes whatever days the clock says the
// end implies.
func (e *Engine) ingest(f feed) error {
	closeDue := func(ev clockEvent, ts uint32) error {
		for day, ok := f.clock.due(ev, ts); ok; day, ok = f.clock.due(ev, ts) {
			e.CloseDay(day)
			if f.onDayClose != nil {
				f.onDayClose(day)
			}
			if err := e.gate(f.stop); err != nil {
				return err
			}
		}
		return nil
	}
	// apply consumes one batch; done reports that ingest should return err.
	apply := func(b *decBatch) (done bool, err error) {
		// A worker that panicked never signals ready: stop and failure
		// must still end the wait.
		if b.ready != nil {
			select {
			case <-b.ready:
			case <-f.stop:
				return true, ErrReplayStopped
			case <-e.failed():
				return true, e.Err()
			}
		}
		// Gate per batch as well as per record: a resuming archive
		// producer emits empty batches while it skips the cursor, and this
		// is where a pause or stop lands during that disk-bound stretch.
		if err := e.gate(f.stop); err != nil {
			return true, err
		}
		for i := range b.recs {
			rec := &b.recs[i]
			if err := e.gate(f.stop); err != nil {
				return true, err
			}
			if rec.kind != source.KindSkip {
				if err := closeDue(atRecord, rec.TS); err != nil {
					return true, err
				}
				if rec.err != nil {
					return true, rec.err
				}
			}
			if rec.kind == source.KindUpdate {
				day, err := f.clock.today()
				if err != nil {
					return true, err
				}
				e.ApplyUpdate(day, PeerKey{IP: rec.PeerIP, AS: rec.PeerAS}, &rec.Upd)
				// A live feed's ops go to the shards once nothing more is
				// queued: a burst fills shard batches, and a lone update is
				// visible as soon as the loop would otherwise wait.
				if b.flush && len(f.out) == 0 {
					e.flush()
				}
			}
			e.recs.Store(rec.Seq)
		}
		switch b.err {
		case nil:
			f.free <- b
			return false, nil
		case io.EOF:
			return true, closeDue(atEnd, 0)
		}
		return true, b.err
	}
	for {
		select {
		case <-f.stop:
			return ErrReplayStopped
		case <-e.failed():
			return e.Err()
		case b := <-f.out:
			if done, err := apply(b); done {
				return err
			}
		case <-f.ticks:
			// The gate is where a pause parks; checking it on the tick
			// bounds how long a pause request waits on a quiet feed.
			if err := e.gate(f.stop); err != nil {
				return err
			}
			// Deliver every batch already queued — including any that
			// arrived while the gate was parked — before consulting the
			// wall clock. A record racing the tick into the same select
			// window is timestamped in the day now in flight; letting the
			// clock close that day first would shunt the record onto the
			// next day. Record time beats wall time.
			for queued := true; queued; {
				select {
				case b := <-f.out:
					if done, err := apply(b); done {
						return err
					}
				default:
					queued = false
				}
			}
			if err := closeDue(atTick, 0); err != nil {
				return err
			}
		}
	}
}
