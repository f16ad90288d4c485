package stream

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"moas/internal/bgp"
	"moas/internal/mrt"
	"moas/internal/source"
)

// runArchive builds a two-day BGP4MP archive with a MOAS conflict on day
// d0 that survives into day d0+1: two peers originate 10.0.0.0/8 from
// different ASes.
func runArchive(t *testing.T, d0 uint32) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := mrt.NewWriter(&buf)
	upd := func(ts uint32, peerAS bgp.ASN, peerIP byte, u *bgp.Update) {
		m := &mrt.BGP4MPMessage{PeerAS: peerAS, LocalAS: 65000, Family: bgp.FamilyIPv4}
		m.PeerIP[3] = peerIP
		m.Data = u.AppendWire(nil)
		if err := w.WriteBGP4MPMessage(ts, m); err != nil {
			t.Fatal(err)
		}
	}
	attrsFrom := func(origin bgp.ASN) *bgp.Attrs {
		return &bgp.Attrs{
			Origin:  bgp.OriginIGP,
			ASPath:  bgp.Path{{Type: bgp.SegSequence, ASes: []bgp.ASN{65001, origin}}},
			NextHop: [4]byte{192, 0, 2, 1},
		}
	}
	p := bgp.MustParsePrefix("10.0.0.0/8")
	day0 := d0 * 86400
	upd(day0+10, 65001, 1, &bgp.Update{Attrs: attrsFrom(70), NLRI: []bgp.Prefix{p}})
	upd(day0+20, 65002, 2, &bgp.Update{Attrs: attrsFrom(71), NLRI: []bgp.Prefix{p}})
	upd(day0+86400+30, 65002, 2, &bgp.Update{Withdrawn: []bgp.Prefix{p}})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRunFileSourceMatchesDirectFeed: draining a file source through Run
// produces the same registry as feeding the identical updates directly,
// with observation days as absolute UTC days.
func TestRunFileSourceMatchesDirectFeed(t *testing.T) {
	const d0 = 12000
	archive := runArchive(t, d0)

	e := New(Config{Shards: 2})
	src := source.NewFileReader(bytes.NewReader(archive), "mem", e.Interner())
	if err := e.Run(src, &RunOptions{CloseFinalDay: true, Now: func() uint32 { return 0 }}); err != nil {
		t.Fatal(err)
	}
	e.Close()

	want := New(Config{Shards: 1})
	attrs := func(origin bgp.ASN) *bgp.Attrs {
		return &bgp.Attrs{
			Origin:  bgp.OriginIGP,
			ASPath:  bgp.Path{{Type: bgp.SegSequence, ASes: []bgp.ASN{65001, origin}}},
			NextHop: [4]byte{192, 0, 2, 1},
		}
	}
	p := bgp.MustParsePrefix("10.0.0.0/8")
	pk := func(b byte, as bgp.ASN) PeerKey {
		var k PeerKey
		k.IP[3] = b
		k.AS = as
		return k
	}
	want.ApplyUpdate(d0, pk(1, 65001), &bgp.Update{Attrs: attrs(70), NLRI: []bgp.Prefix{p}})
	want.ApplyUpdate(d0, pk(2, 65002), &bgp.Update{Attrs: attrs(71), NLRI: []bgp.Prefix{p}})
	want.CloseDay(d0)
	want.ApplyUpdate(d0+1, pk(2, 65002), &bgp.Update{Withdrawn: []bgp.Prefix{p}})
	want.CloseDay(d0 + 1)
	want.Close()

	diffRegistries(t, want.Registry(), e.Registry())
	if got := e.Records(); got != 3 {
		t.Fatalf("Records()=%d, want 3 (the source's delivered-update cursor)", got)
	}
	if st := e.Stats(); st.Source != nil {
		t.Fatalf("Stats.Source=%+v after Run returned, want nil", st.Source)
	}
	if st := want.Stats(); st.RouteNodes == 0 || st.KernelStates == 0 {
		t.Fatalf("memory accounting empty: %+v", st)
	}
}

// chanSource is a scriptable source: records are pushed on a channel and
// Next blocks until one arrives or the source closes.
type chanSource struct {
	ch     chan source.Record
	done   chan struct{}
	closed atomic.Bool
	once   sync.Once
}

func newChanSource() *chanSource {
	return &chanSource{ch: make(chan source.Record), done: make(chan struct{})}
}

func (s *chanSource) Next(rec *source.Record) error {
	select {
	case r := <-s.ch:
		*rec = r
		return nil
	case <-s.done:
		return io.EOF
	}
}

func (s *chanSource) Status() source.Status {
	return source.Status{Kind: "chan", Connected: !s.closed.Load()}
}

func (s *chanSource) Close() error {
	s.closed.Store(true)
	s.once.Do(func() { close(s.done) })
	return nil
}

// msTicks returns a 1 ms ticker's channel for RunOptions.Ticks, stopped
// when the test ends.
func msTicks(t *testing.T) <-chan time.Time {
	tk := time.NewTicker(time.Millisecond)
	t.Cleanup(tk.Stop)
	return tk.C
}

// TestRunWallClockDayClose: on a quiet feed, the day in flight closes
// when the wall clock crosses midnight — continuous operation does not
// wait for the next update to extend conflict durations.
func TestRunWallClockDayClose(t *testing.T) {
	const d0 = 13000
	var clk atomic.Uint32
	clk.Store(d0*86400 + 100)

	src := newChanSource()
	e := New(Config{Shards: 1})
	defer e.Close()
	runDone := make(chan error, 1)
	stop := make(chan struct{})
	go func() { runDone <- e.Run(src, &RunOptions{Stop: stop, Now: clk.Load, Ticks: msTicks(t)}) }()

	p := bgp.MustParsePrefix("10.0.0.0/8")
	attrs := &bgp.Attrs{
		Origin:  bgp.OriginIGP,
		ASPath:  bgp.Path{{Type: bgp.SegSequence, ASes: []bgp.ASN{65001}}},
		NextHop: [4]byte{192, 0, 2, 1},
	}
	var rec source.Record
	rec.Seq, rec.TS, rec.PeerAS = 1, d0*86400+100, 65001
	rec.Upd = bgp.Update{Attrs: attrs, NLRI: []bgp.Prefix{p}}
	src.ch <- rec

	// Nothing closed yet: the update's day is still open.
	deadline := time.Now().Add(5 * time.Second)
	for e.Stats().Messages != 1 {
		if time.Now().After(deadline) {
			t.Fatal("update never ingested")
		}
		time.Sleep(time.Millisecond)
	}
	if got := e.Stats().LastClosedDay; got != -1 {
		t.Fatalf("LastClosedDay=%d before midnight, want -1", got)
	}
	if st := e.SourceStatus(); st == nil || st.Kind != "chan" {
		t.Fatalf("SourceStatus=%+v mid-run", st)
	}

	clk.Store((d0 + 1) * 86400)
	for e.Stats().LastClosedDay != d0 {
		if time.Now().After(deadline) {
			t.Fatalf("LastClosedDay=%d after midnight, want %d", e.Stats().LastClosedDay, d0)
		}
		time.Sleep(time.Millisecond)
	}

	// Stop ends the run and closes the source.
	close(stop)
	select {
	case err := <-runDone:
		if err != ErrReplayStopped {
			t.Fatalf("Run: %v, want ErrReplayStopped", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return on Stop")
	}
	if !src.closed.Load() {
		t.Fatal("Stop did not close the source")
	}
}

// TestRunTickRecordOrdering: a record already delivered when a
// wall-clock tick fires — here queued while a pause had the run parked
// in the tick branch's gate, the widest form of that window — must
// apply to its own observation day before the clock closes it. The
// buggy interleaving would close the day first and shunt the record
// onto the next day, stamping its lifecycle event a day ahead; it must
// also not close the day twice.
func TestRunTickRecordOrdering(t *testing.T) {
	const d0 = 14000
	var clk atomic.Uint32
	clk.Store(d0*86400 + 100)

	src := newChanSource()
	e := New(Config{Shards: 1})
	defer e.Close()
	ticks := make(chan time.Time)
	stop := make(chan struct{})
	runDone := make(chan error, 1)
	var mu sync.Mutex
	var closes []int
	go func() {
		runDone <- e.Run(src, &RunOptions{
			Stop:  stop,
			Now:   clk.Load,
			Ticks: ticks,
			OnDayClose: func(day int) {
				mu.Lock()
				closes = append(closes, day)
				mu.Unlock()
			},
		})
	}()

	p := bgp.MustParsePrefix("10.0.0.0/8")
	attrs := func(origin bgp.ASN) *bgp.Attrs {
		return &bgp.Attrs{
			Origin:  bgp.OriginIGP,
			ASPath:  bgp.Path{{Type: bgp.SegSequence, ASes: []bgp.ASN{65001, origin}}},
			NextHop: [4]byte{192, 0, 2, 1},
		}
	}
	var rec source.Record
	rec.Seq, rec.TS, rec.PeerAS = 1, d0*86400+100, 65001
	rec.PeerIP[3] = 1
	rec.Upd = bgp.Update{Attrs: attrs(70), NLRI: []bgp.Prefix{p}}
	src.ch <- rec

	deadline := time.Now().Add(5 * time.Second)
	for e.Stats().Messages != 1 {
		if time.Now().After(deadline) {
			t.Fatal("first update never ingested")
		}
		time.Sleep(time.Millisecond)
	}

	// Park the run inside the tick branch's gate.
	park := e.Pause()
	ticks <- time.Time{}
	select {
	case <-park:
	case <-time.After(5 * time.Second):
		t.Fatal("run never parked on the tick gate")
	}

	// While parked: a second record, still timestamped in d0, reaches
	// the run loop's channel (it starts the MOAS conflict), and then
	// the wall clock crosses midnight.
	rec.Seq, rec.TS, rec.PeerAS = 2, d0*86400+86399, 65002
	rec.PeerIP[3] = 2
	rec.Upd = bgp.Update{Attrs: attrs(71), NLRI: []bgp.Prefix{p}}
	src.ch <- rec
	time.Sleep(50 * time.Millisecond) // let the puller block on the handoff
	clk.Store((d0 + 1) * 86400)
	e.Resume()

	for e.Stats().Messages != 2 || e.Stats().LastClosedDay != d0 {
		if time.Now().After(deadline) {
			t.Fatalf("stats after resume: %+v", e.Stats())
		}
		time.Sleep(time.Millisecond)
	}

	close(stop)
	select {
	case err := <-runDone:
		if err != ErrReplayStopped {
			t.Fatalf("Run: %v, want ErrReplayStopped", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return on Stop")
	}

	// The conflict-start event is stamped with the record's own day.
	var started bool
	for _, ev := range e.Events() {
		if ev.Type == EventConflictStart {
			started = true
			if ev.Day != d0 {
				t.Fatalf("conflict started on day %d: the tick closed day %d ahead of its own record", ev.Day, d0)
			}
		}
	}
	if !started {
		t.Fatal("no conflict-start event emitted")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(closes) != 1 || closes[0] != d0 {
		t.Fatalf("day closes = %v, want exactly [%d]", closes, d0)
	}
}

// liveUpdates returns n source records, each announcing its own /24 from
// one peer on day d0, and the prefixes they announce.
func liveUpdates(n int, d0 uint32) ([]source.Record, []bgp.Prefix) {
	attrs := &bgp.Attrs{
		Origin:  bgp.OriginIGP,
		ASPath:  bgp.Path{{Type: bgp.SegSequence, ASes: []bgp.ASN{65001, 70}}},
		NextHop: [4]byte{192, 0, 2, 1},
	}
	recs := make([]source.Record, n)
	prefixes := make([]bgp.Prefix, n)
	for i := range recs {
		prefixes[i] = bgp.PrefixFromUint32(10<<24+uint32(i)<<8, 24)
		recs[i] = source.Record{Seq: uint64(i + 1), TS: d0*86400 + 100, PeerAS: 65001}
		recs[i].PeerIP[3] = 1
		recs[i].Upd = bgp.Update{Attrs: attrs, NLRI: prefixes[i : i+1 : i+1]}
	}
	return recs, prefixes
}

// waitRoutes polls the engine's query path until every prefix shows its
// one route, without settling the engine first (no Sync, no Pause).
func waitRoutes(t *testing.T, e *Engine, prefixes []bgp.Prefix) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for _, p := range prefixes {
		for e.Prefix(p).Routes != 1 {
			if time.Now().After(deadline) {
				t.Fatalf("%v never became visible to queries", p)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestRunFlushesWhenIdle: a live run hands the shards its pending ops as
// soon as its queue runs dry, so every update a stalled feed delivered is
// visible to queries with no Sync, Pause or day close to settle it.
func TestRunFlushesWhenIdle(t *testing.T) {
	const d0, n = 15000, 16
	src := newChanSource()
	e := New(Config{Shards: 2})
	defer e.Close()
	stop := make(chan struct{})
	runDone := make(chan error, 1)
	now := func() uint32 { return d0*86400 + 200 }
	go func() { runDone <- e.Run(src, &RunOptions{Stop: stop, Now: now}) }()

	recs, prefixes := liveUpdates(n, d0)
	for _, rec := range recs {
		src.ch <- rec
	}
	waitRoutes(t, e, prefixes)
	close(stop)
	if err := <-runDone; err != ErrReplayStopped {
		t.Fatalf("Run: %v, want ErrReplayStopped", err)
	}
}

// sliceSource serves its records, then fails with err; failed closes
// when it does.
type sliceSource struct {
	recs   []source.Record
	err    error
	failed chan struct{}
}

func (s *sliceSource) Next(rec *source.Record) error {
	if len(s.recs) == 0 {
		close(s.failed)
		return s.err
	}
	*rec, s.recs = s.recs[0], s.recs[1:]
	return nil
}

func (s *sliceSource) Status() source.Status { return source.Status{Kind: "slice"} }
func (s *sliceSource) Close() error          { return nil }

// TestRunAppliesQueuedBeforeError: a source that fails right behind its
// last record ends the run with every record applied, counted and
// visible. The records and the failure are queued back to back, so the
// queue never runs dry: only the flush on the way out makes the last
// records' ops reach the shards.
func TestRunAppliesQueuedBeforeError(t *testing.T) {
	const d0, n = 16000, 16
	recs, prefixes := liveUpdates(n, d0)
	boom := errors.New("feed broke")
	src := &sliceSource{recs: recs, err: boom, failed: make(chan struct{})}
	e := New(Config{Shards: 2})
	defer e.Close()

	// Parked on its first record, the run lets the puller queue the rest
	// and the failure behind them; resumed, it applies them back to back.
	// Run must be right in any interleaving; the pause (and the sleep
	// below) only make sure the queue is never empty behind a record, so
	// that the flush on the way out is the one this test exercises.
	park := e.Pause()
	runDone := make(chan error, 1)
	now := func() uint32 { return d0*86400 + 200 }
	go func() { runDone <- e.Run(src, &RunOptions{Now: now}) }()
	<-src.failed
	select {
	case <-park:
	case <-time.After(5 * time.Second):
		t.Fatal("run never parked")
	}
	time.Sleep(20 * time.Millisecond) // let the puller queue the failure
	e.Resume()

	select {
	case err := <-runDone:
		if !errors.Is(err, boom) {
			t.Fatalf("Run: %v, want %v", err, boom)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return on the source error")
	}
	if got := e.Records(); got != n {
		t.Fatalf("Records()=%d, want %d", got, n)
	}
	waitRoutes(t, e, prefixes)
}
