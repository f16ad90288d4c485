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
	"moas/internal/source/rislive"
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

// Buffered is false: a record exists only once the test sends it.
func (s *chanSource) Buffered() bool { return false }

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
	var delivered eventSink
	e := New(Config{Shards: 1, OnEvent: delivered.add})
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
	for _, ev := range delivered.sorted() {
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

// Buffered is true: the records and the failure are all in hand.
func (s *sliceSource) Buffered() bool        { return true }
func (s *sliceSource) Status() source.Status { return source.Status{Kind: "slice"} }
func (s *sliceSource) Close() error          { return nil }

// TestRunAppliesQueuedBeforeError: a source that fails right behind its
// last record ends the run with every record applied, counted and
// visible. The source holds the records and the failure at once, so the
// puller ships them as one terminal batch, which the loop applies without
// flushing: only the flush on the way out makes the records' ops reach
// the shards.
func TestRunAppliesQueuedBeforeError(t *testing.T) {
	const d0, n = 16000, 16
	recs, prefixes := liveUpdates(n, d0)
	boom := errors.New("feed broke")
	src := &sliceSource{recs: recs, err: boom, failed: make(chan struct{})}
	e := New(Config{Shards: 2})
	defer e.Close()

	// Parked before its first record, the run lets the puller read every
	// record and the failure; resumed, it applies them back to back. Run
	// must be right in any interleaving; the pause (and the sleep below)
	// only make sure everything is queued before the loop applies
	// anything, so that the flush on the way out is the one this test
	// exercises.
	park := e.Pause()
	runDone := make(chan error, 1)
	now := func() uint32 { return d0*86400 + 200 }
	go func() { runDone <- e.Run(src, &RunOptions{Now: now}) }()
	select {
	case <-src.failed:
	case <-time.After(5 * time.Second):
		t.Fatal("source never reached its failure")
	}
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

// stepSource is a sliceSource that never reports a record buffered, like
// a feed whose every record is the last one its transport has delivered.
type stepSource struct{ *sliceSource }

func (stepSource) Buffered() bool { return false }

// startPull runs pull over src with a ring shaped like Run's and returns
// the ring's ends.
func startPull(src source.Source, base uint64) (free chan<- *decBatch, out <-chan *decBatch) {
	f, o := make(chan *decBatch, ringBatches), make(chan *decBatch, ringBatches)
	for i := 0; i < cap(f); i++ {
		f <- newDecBatch(liveBatchLen)
	}
	go pull(src, base, f, o)
	return f, o
}

// pullBatches runs pull over src and returns the records' cursors batch
// by batch, recycling each batch as the loop would, until the terminal
// batch; it fails unless that batch ends the feed with io.EOF.
func pullBatches(t *testing.T, src source.Source, base uint64) [][]uint64 {
	t.Helper()
	free, out := startPull(src, base)
	var batches [][]uint64
	for b := range out {
		seqs := make([]uint64, len(b.recs))
		for i, rec := range b.recs {
			if rec.kind != source.KindUpdate {
				t.Fatalf("batch %d record %d: kind %d, want an update", len(batches), i, rec.kind)
			}
			seqs[i] = rec.Seq
		}
		batches = append(batches, seqs)
		if b.err != nil {
			if b.err != io.EOF {
				t.Fatalf("terminal batch error %v, want io.EOF", b.err)
			}
			return batches
		}
		free <- b
	}
	t.Fatal("pull closed its output without a terminal batch")
	return nil
}

// TestPullBatchesBufferedRecords: the puller hands the loop every record
// its source holds as one batch — 1 000 buffered records arrive in
// ⌈1000/64⌉ full batches, in order, each stamped with the engine cursor
// it advances to — and ships a batch the moment another record would
// mean waiting: a source with nothing buffered behind each record yields
// one record per batch, and a record on a blocking source reaches the
// loop without a second one behind it.
func TestPullBatchesBufferedRecords(t *testing.T) {
	const n, base = 1000, 7
	recs, _ := liveUpdates(n, 17000)
	checkSeqs := func(batches [][]uint64) {
		t.Helper()
		want := uint64(base)
		for _, b := range batches {
			for _, seq := range b {
				if want++; seq != want {
					t.Fatalf("cursor %d, want %d", seq, want)
				}
			}
		}
		if want != base+n {
			t.Fatalf("records end at cursor %d, want %d", want, base+n)
		}
	}

	batches := pullBatches(t, &sliceSource{recs: recs, err: io.EOF, failed: make(chan struct{})}, base)
	if want := (n + liveBatchLen - 1) / liveBatchLen; len(batches) != want {
		t.Fatalf("%d batches, want %d", len(batches), want)
	}
	for i, b := range batches[:len(batches)-1] {
		if len(b) != liveBatchLen {
			t.Fatalf("batch %d holds %d records, want a full %d", i, len(b), liveBatchLen)
		}
	}
	checkSeqs(batches)

	batches = pullBatches(t, stepSource{&sliceSource{recs: recs, err: io.EOF, failed: make(chan struct{})}}, base)
	if len(batches) != n+1 {
		t.Fatalf("%d batches, want %d one-record batches and the terminal one", len(batches), n)
	}
	for i, b := range batches[:n] {
		if len(b) != 1 {
			t.Fatalf("batch %d holds %d records, want 1", i, len(b))
		}
	}
	checkSeqs(batches)

	src := newChanSource()
	free, out := startPull(src, base)
	for i := range 3 {
		src.ch <- recs[i]
		select {
		case b := <-out:
			if len(b.recs) != 1 || b.recs[0].Seq != base+uint64(i)+1 {
				t.Fatalf("batch %d: %d records", i, len(b.recs))
			}
			free <- b
		case <-time.After(5 * time.Second):
			t.Fatalf("record %d never shipped: the puller waited to fill its batch", i)
		}
	}
	src.Close()
	for range out {
	}
}

// TestPullRISMessageOneBatch: a RIS Live message with several
// announcement groups expands into one record per group, and the puller
// hands all of them to the loop as one batch.
func TestPullRISMessageOneBatch(t *testing.T) {
	fake, err := rislive.NewFake()
	if err != nil {
		t.Fatal(err)
	}
	defer fake.Close()
	cl, err := rislive.Dial(rislive.Config{URL: fake.URL(), Interner: bgp.NewAttrsInterner(false)})
	if err != nil {
		t.Fatal(err)
	}
	if err := fake.WaitConnected(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	_, out := startPull(cl, 0)
	defer func() {
		cl.Close()
		for range out {
		}
	}()

	groups := []rislive.Announcement{
		{NextHop: "192.0.2.9", Prefixes: []string{"10.0.0.0/8", "10.1.0.0/16"}},
		{NextHop: "192.0.2.10", Prefixes: []string{"10.2.0.0/16"}},
		{NextHop: "192.0.2.11", Prefixes: []string{"10.3.0.0/16"}},
	}
	if err := fake.Send(rislive.Msg{
		Timestamp:     86400,
		Peer:          "192.0.2.9",
		PeerASN:       65001,
		Path:          []any{uint32(65001), uint32(65002)},
		Announcements: groups,
		Withdrawals:   []string{"10.4.0.0/16"},
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case b := <-out:
		if len(b.recs) != len(groups) {
			t.Fatalf("first batch holds %d records, want the message's %d", len(b.recs), len(groups))
		}
		for i, rec := range b.recs {
			if rec.Seq != uint64(i+1) || len(rec.Upd.NLRI) != len(groups[i].Prefixes) {
				t.Fatalf("record %d: Seq=%d NLRI=%v", i, rec.Seq, rec.Upd.NLRI)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the message never reached the loop")
	}
}

// pauseFeed returns n records from two peers originating the same eight
// prefixes from different ASes (MOAS conflicts), the first k on day d0
// and the rest on day d0+1.
func pauseFeed(n, k int, d0 uint32) []source.Record {
	attrs := func(origin bgp.ASN) *bgp.Attrs {
		return &bgp.Attrs{
			Origin:  bgp.OriginIGP,
			ASPath:  bgp.Path{{Type: bgp.SegSequence, ASes: []bgp.ASN{65001, origin}}},
			NextHop: [4]byte{192, 0, 2, 1},
		}
	}
	a := [2]*bgp.Attrs{attrs(70), attrs(71)}
	recs := make([]source.Record, n)
	for i := range recs {
		peer := i % 2
		p := bgp.PrefixFromUint32(10<<24+uint32(i/2%8)<<8, 24)
		ts := d0*86400 + 100
		if i >= k {
			ts += 86400
		}
		recs[i] = source.Record{Seq: uint64(i + 1), TS: ts, PeerAS: bgp.ASN(65001 + peer)}
		recs[i].PeerIP[3] = byte(1 + peer)
		if i >= k && i%5 == 0 {
			recs[i].Upd = bgp.Update{Withdrawn: []bgp.Prefix{p}}
		} else {
			recs[i].Upd = bgp.Update{Attrs: a[peer], NLRI: []bgp.Prefix{p}}
		}
	}
	return recs
}

// TestRunPauseInsideBatch: a source holding its whole feed hands it to
// the loop as one batch, and a pause requested where record k closes the
// first day parks inside that batch at a record boundary — Records() and
// the applied-update count both k, the record that closed the day not yet
// applied. Resumed, the run finishes in the state of an uninterrupted
// run, and so does an engine restored from a checkpoint taken at the park
// and fed the rest of the feed.
func TestRunPauseInsideBatch(t *testing.T) {
	const d0, n, k = 18000, 48, 20
	feed := pauseFeed(n, k, d0)
	now := func() uint32 { return d0*86400 + 200 }
	run := func(e *Engine, recs []source.Record, onDayClose func(int)) error {
		src := &sliceSource{recs: recs, err: io.EOF, failed: make(chan struct{})}
		return e.Run(src, &RunOptions{CloseFinalDay: true, Now: now, OnDayClose: onDayClose})
	}

	want := New(Config{Shards: 2})
	if err := run(want, feed, nil); err != nil {
		t.Fatal(err)
	}
	wantCk := eqCheckpoint(t, want)

	e := New(Config{Shards: 2})
	parks := make(chan (<-chan struct{}), 1)
	runDone := make(chan error, 1)
	go func() {
		runDone <- run(e, feed, func(day int) {
			if day == d0 {
				parks <- e.Pause()
			}
		})
	}()
	select {
	case park := <-parks:
		select {
		case <-park:
		case <-time.After(5 * time.Second):
			t.Fatal("run never parked")
		}
	case err := <-runDone:
		t.Fatalf("Run returned %v before the day closed", err)
	}
	if !e.Parked() {
		t.Fatal("Pause's channel closed with the run not parked")
	}
	if got := e.Records(); got != k {
		t.Fatalf("parked at Records()=%d, want %d", got, k)
	}
	if got := e.Stats().Messages; got != k {
		t.Fatalf("parked with %d updates applied, want %d", got, k)
	}
	ck := e.Checkpoint()
	e.Resume()
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("Run after Resume: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not finish after Resume")
	}
	if got := eqCheckpoint(t, e); !bytes.Equal(got, wantCk) {
		t.Fatalf("paused and resumed run differs from the uninterrupted one:\nwant %s\n got %s", wantCk, got)
	}

	// The rest of the feed, numbered by a fresh source from 1: the
	// restored cursor is the base Run adds.
	rest := append([]source.Record(nil), feed[k:]...)
	for i := range rest {
		rest[i].Seq = uint64(i + 1)
	}
	restored, err := NewFromCheckpoint(Config{Shards: 2}, ck)
	if err != nil {
		t.Fatal(err)
	}
	if err := run(restored, rest, nil); err != nil {
		t.Fatal(err)
	}
	if got := eqCheckpoint(t, restored); !bytes.Equal(got, wantCk) {
		t.Fatalf("run restored at the park differs from the uninterrupted one:\nwant %s\n got %s", wantCk, got)
	}
}

// TestReplayThenRunShareInterner: Replay's framer and Run's puller take
// turns as the engine interner's one writer. Under -race this checks the
// single-writer contract on one engine: the Run that follows a Replay
// interns on its own goroutine once the framer has exited, and it hits
// the blocks the replay interned (the same wire bytes, the same table),
// while a reader polls the interner's counters through Stats beside both.
func TestReplayThenRunShareInterner(t *testing.T) {
	archive := runArchive(t, 12000)
	cal, err := ArchiveCalendar(bytes.NewReader(archive))
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{Shards: 2})
	defer e.Close()
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
				_ = e.Stats()
			}
		}
	}()
	defer func() {
		close(stop)
		reader.Wait()
	}()

	if err := e.Replay(bytes.NewReader(archive), cal, nil); err != nil {
		t.Fatal(err)
	}
	distinct := e.DistinctAttrs()
	if distinct != 2 {
		t.Fatalf("replay interned %d attrs blocks, want 2", distinct)
	}
	src := source.NewFileReader(bytes.NewReader(archive), "mem", e.Interner())
	if err := e.Run(src, &RunOptions{Now: func() uint32 { return 0 }}); err != nil {
		t.Fatal(err)
	}
	if got := e.DistinctAttrs(); got != distinct {
		t.Fatalf("run after replay interned %d attrs blocks, want the replay's %d", got, distinct)
	}
	if got := e.Stats().Messages; got != 6 {
		t.Fatalf("%d messages applied, want 3 by the replay and 3 by the run", got)
	}
}
