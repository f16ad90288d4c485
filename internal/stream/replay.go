package stream

import (
	"errors"
	"io"
	"sort"

	"moas/internal/mrt"
)

// Calendar maps BGP4MP record timestamps back to observation days: Times[i]
// is the timestamp stamped on day Days[i]'s updates. Both ascend.
type Calendar struct {
	Days  []int
	Times []uint32
}

// NewCalendar builds the calendar of an archive whose writer is known:
// days are the observation days in ascending order (gaps allowed) and
// stamp gives the timestamp the writer put on a day's records.
func NewCalendar(days []int, stamp func(day int) uint32) Calendar {
	cal := Calendar{Days: append([]int(nil), days...), Times: make([]uint32, len(days))}
	for i, d := range cal.Days {
		cal.Times[i] = stamp(d)
	}
	return cal
}

// ReplayOptions tunes a replay.
type ReplayOptions struct {
	// OnDayClose, when non-nil, runs on the replay goroutine after each
	// day's updates have been dispatched and its day-close barrier issued.
	// moasd uses it to pace replay and report progress; tests use it to
	// pause mid-replay.
	OnDayClose func(day int)
	// Stop, when non-nil, aborts the replay once closed: Replay returns
	// ErrReplayStopped at the next record boundary (waking a paused replay
	// if necessary). serve closes it when a scenario is deleted mid-replay.
	Stop <-chan struct{}
}

// ErrReplayStopped is returned by Replay when its ReplayOptions.Stop
// channel closes before the archive is exhausted. The engine is left
// queryable but mid-stream; the caller decides whether to Close it.
var ErrReplayStopped = errors.New("stream: replay stopped")

// gate is the ingest loop's check point: it honors a Stop cancellation, a
// contained worker failure (a dead shard is draining its queue; the feed
// must fail rather than keep half-applying) and a requested pause,
// settling all shards with Sync before parking so a paused engine serves
// a stable view. Runs on the ingest goroutine.
func (e *Engine) gate(stop <-chan struct{}) error {
	// Two one-channel polls, not one select over both: each compiles to a
	// lock-free emptiness check, and this runs once per record.
	select {
	case <-stop:
		return ErrReplayStopped
	default:
	}
	select {
	case <-e.failed():
		return e.Err()
	default:
	}
	for {
		req := e.paused.Load()
		if req == nil {
			return nil
		}
		e.Sync()
		e.parked.Store(true)
		req.wake()
		select {
		case <-req.release:
			e.parked.Store(false)
		case <-stop:
			e.parked.Store(false)
			return ErrReplayStopped
		}
	}
}

// Replay feeds a BGP4MP update archive through the engine: BGP4MP_MESSAGE
// records are decoded and dispatched, and day-close barriers are issued as
// record timestamps cross observation-day boundaries. Observed days with
// no updates at all still close (a quiet day extends every active
// conflict's duration, exactly as the batch scan sees it). Records other
// than BGP4MP_MESSAGE and BGP messages other than UPDATE are skipped, as a
// collector consumer must. Replay does not Close the engine — callers may
// keep feeding or querying afterwards.
//
// Replay is the ingest loop (ingest.go) over the archive producer — one
// goroutine that frames and decodes the archive into batches, in archive
// order (decode.go) — and the calendar's clock. The record cursor counts raw MRT records, and only
// applied ones: decode read-ahead is bounded by the producer's ring and
// simply discarded if the replay is abandoned, so a parked replay serves
// a settled view with nothing past the park point reflected in it.
//
// A replay starts at the engine's own cursor. A fresh engine reads the
// archive from its first record; one restored by NewFromCheckpoint resumes
// mid-archive, given a fresh open of the archive its image was taken from.
func (e *Engine) Replay(r io.Reader, cal Calendar, opts *ReplayOptions) error {
	if len(cal.Days) == 0 {
		return errors.New("stream: empty calendar")
	}
	var o ReplayOptions
	if opts != nil {
		o = *opts
	}
	// The engine's own cursor says where to start: the producer discards
	// the records it has already applied undecoded, and the calendar
	// skips the days it has already closed.
	clock := &calendarClock{cal: cal, idx: sort.SearchInts(cal.Days, e.LastClosedDay()+1)}
	out, free, shutdown := e.startDecode(r, e.recs.Load())
	// The producer owns r until it exits; Replay must not return while it
	// might still read (callers close the file right after).
	defer shutdown()
	return e.ingest(feed{out: out, free: free, clock: clock, stop: o.Stop, onDayClose: o.OnDayClose})
}

// ArchiveCalendar derives a replay calendar from a BGP4MP update archive
// itself — the path for real MRT files on disk, where no scenario object
// knows the observation days. Each distinct UTC day carrying at least one
// BGP4MP message becomes an observed day; days are numbered relative to
// the first (day 0), preserving calendar gaps so duration arithmetic
// matches the synthesized-archive path. The reader is consumed; callers
// replaying a file open it once to scan and again to replay.
func ArchiveCalendar(r io.Reader) (Calendar, error) {
	const daySecs = 86400
	seen := make(map[uint32]struct{}) // UTC day number (timestamp / 86400)
	fr := mrt.NewFramer(r)
	for {
		// A header walk: Skip discards bodies without copying them.
		h, err := fr.Skip()
		if err == io.EOF {
			break
		}
		if err != nil {
			return Calendar{}, err
		}
		if h.Type != mrt.TypeBGP4MP || h.Subtype != mrt.SubtypeMessage {
			continue
		}
		seen[h.Timestamp/daySecs] = struct{}{}
	}
	if len(seen) == 0 {
		return Calendar{}, errors.New("stream: no BGP4MP messages in archive")
	}
	days := make([]uint32, 0, len(seen))
	for d := range seen {
		days = append(days, d)
	}
	sort.Slice(days, func(i, j int) bool { return days[i] < days[j] })
	cal := Calendar{Days: make([]int, len(days)), Times: make([]uint32, len(days))}
	for i, d := range days {
		cal.Days[i] = int(d - days[0])
		cal.Times[i] = d * daySecs
	}
	return cal, nil
}
