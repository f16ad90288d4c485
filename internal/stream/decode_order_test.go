package stream

import (
	"bytes"
	"io"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"moas/internal/bgp"
	"moas/internal/mrt"
)

// errOrderArchive builds a 4-day archive with a corrupt record planted
// mid-stream: 10 valid updates on day 0, 10 on day 1, then a BGP4MP
// record whose embedded BGP message is garbage, timestamped on day 3 —
// so consuming it must first close days 0, 1 and 2 (two of them implied
// by the corrupt record's own timestamp) and only then fail. Valid
// records after the corruption must never be applied.
func errOrderArchive(t testing.TB) ([]byte, Calendar, int) {
	t.Helper()
	const daySecs = 86400
	cal := Calendar{Days: []int{0, 1, 2, 3}, Times: []uint32{0, daySecs, 2 * daySecs, 3 * daySecs}}

	var buf bytes.Buffer
	w := mrt.NewWriter(&buf)
	write := func(ts uint32, data []byte) {
		msg := &mrt.BGP4MPMessage{PeerAS: 64500, LocalAS: 65000, Family: bgp.FamilyIPv4, Data: data}
		msg.PeerIP[15] = 9
		if err := w.WriteBGP4MPMessage(ts, msg); err != nil {
			t.Fatal(err)
		}
	}
	valid := 0
	announce := func(ts uint32, i int) {
		u := &bgp.Update{
			NLRI:  []bgp.Prefix{bgp.PrefixFromUint32(uint32(10<<24|i<<8), 24)},
			Attrs: &bgp.Attrs{ASPath: bgp.Seq(64500, 1239, bgp.ASN(65000+i))},
		}
		write(ts, u.AppendWire(nil))
		valid++
	}
	for i := 0; i < 10; i++ {
		announce(0, i)
	}
	for i := 0; i < 10; i++ {
		announce(daySecs, 10+i)
	}
	// The corrupt record: a well-formed BGP4MP wrapper around 19 zero
	// bytes — the embedded message's marker check fails in every decoder.
	write(3*daySecs, make([]byte, 19))
	for i := 0; i < 5; i++ {
		announce(3*daySecs, 20+i)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), cal, valid
}

// TestDecodeErrorOrderingAcrossWorkers pins the replay's error
// semantics (the name dates from when it ran at several decode-worker
// counts): a mid-archive corrupt record surfaces its error only after
// every day close implied by earlier timestamps (including its own), with
// the record cursor stopped exactly at the corrupt record and nothing
// after it applied.
func TestDecodeErrorOrderingAcrossWorkers(t *testing.T) {
	archive, cal, _ := errOrderArchive(t)
	const wantErr = "stream: embedded message: bgp: bad message: bad marker"

	e := New(Config{Shards: 2})
	err := e.Replay(bytes.NewReader(archive), cal, nil)
	e.Close()
	if err == nil || err.Error() != wantErr {
		t.Fatalf("replay of corrupt archive returned %v, want %q", err, wantErr)
	}
	if n := e.Records(); n != 20 {
		t.Fatalf("cursor at %d records, want 20 (the corrupt record is uncounted)", n)
	}
	st := e.Stats()
	if st.Messages != 20 {
		t.Fatalf("%d messages applied, want 20 (nothing after the corruption)", st.Messages)
	}
	if st.LastClosedDay != 2 {
		t.Fatalf("last closed day %d, want 2 (closes implied by the corrupt record's own timestamp)", st.LastClosedDay)
	}
}

// TestDecodeTruncationAcrossWorkers pins stream-level (framing) errors
// the same way: an archive cut inside its final record fails with
// io.ErrUnexpectedEOF, with every record before the cut applied and
// counted.
func TestDecodeTruncationAcrossWorkers(t *testing.T) {
	sc, archive, _ := fixtures(t)
	cal := NewCalendar(sc.ObservedDays, sc.DayStamp)
	whole := replayAll(t, Config{Shards: 2})
	truncated := archive[:len(archive)-7]

	e := New(Config{Shards: 2})
	err := e.Replay(bytes.NewReader(truncated), cal, nil)
	e.Close()
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated archive returned %v, want io.ErrUnexpectedEOF", err)
	}
	if got, want := e.Records(), whole.Records()-1; got != want {
		t.Fatalf("cursor at %d records, want %d (all but the cut one)", got, want)
	}
}

// TestDecodeWorkerInvariance pins that the deprecated DecodeWorkers knob
// (still set by callers written when replay ran several decode workers)
// has no effect: a full fixture replay at workers ∈ {0, 1, 4, 8} produces
// the batch full scan's registry and one set of delivered events and
// binary checkpoint, byte for byte.
func TestDecodeWorkerInvariance(t *testing.T) {
	_, _, want := fixtures(t)

	var wantEvents []Event
	var wantCk []byte
	for _, workers := range []int{0, 1, 4, 8} {
		e, events := replayEvents(t, Config{Shards: 3, DecodeWorkers: workers})
		diffRegistries(t, want, e.Registry())
		ck := checkpointBytes(t, e)
		if wantEvents == nil {
			wantEvents, wantCk = events, ck
			continue
		}
		if !reflect.DeepEqual(wantEvents, events) {
			t.Fatalf("workers=%d events differ: %d vs %d", workers, len(wantEvents), len(events))
		}
		if !bytes.Equal(wantCk, ck) {
			t.Fatalf("workers=%d binary checkpoint differs (%d vs %d bytes)", workers, len(wantCk), len(ck))
		}
	}
}

// TestFinishedReplayReleasesRing: once Replay returns, nothing on the
// engine may keep the batch ring alive — ringBatches batches of
// pre-carved record slots per finished scenario. The stage handle the engine keeps for /stats holds counters
// only, so dropping it must free next to nothing, and the decode stats
// stay readable through it.
func TestFinishedReplayReleasesRing(t *testing.T) {
	e := replayAll(t, Config{Shards: 1})

	st := e.Stats().Decode
	if st.Frames != e.Records() || st.FramesPerSec <= 0 {
		t.Fatalf("decode stats after replay: %+v (records %d)", st, e.Records())
	}
	if st.RingOccupancy != 0 {
		t.Fatalf("finished replay reports batches in flight: %+v", st)
	}

	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	e.dec.Store(nil)
	if after := heap(); before > after+256<<10 {
		t.Fatalf("dropping the finished replay's stage handle freed %d KB: it was pinning the batch ring",
			(before-after)>>10)
	}
	runtime.KeepAlive(e) // the engine's own state must not count as freed
}

// TestParallelDecodeCheckpointResume parks a replay mid-stream (with
// batches the framer decoded ahead of the park in the ring), checkpoints,
// restores into a different shard layout, finishes the archive, and
// proves the result byte-identical to an uninterrupted replay — read-ahead
// past the park point must leave no trace in the checkpoint.
func TestParallelDecodeCheckpointResume(t *testing.T) {
	sc, archive, _ := fixtures(t)
	cal := NewCalendar(sc.ObservedDays, sc.DayStamp)

	ck, _, before := checkpointAtDay(t, Config{Shards: 3}, len(cal.Days)/2)
	if ck.Records == 0 {
		t.Fatalf("checkpoint cursor empty: %+v", ck)
	}

	// Round-trip the checkpoint through its encoding, as the durable store
	// does.
	blob, err := AppendCheckpointBinary(nil, ck)
	if err != nil {
		t.Fatal(err)
	}
	thawed, err := DecodeCheckpointBinary(blob)
	if err != nil {
		t.Fatal(err)
	}

	var after eventSink
	restored, err := NewFromCheckpoint(Config{Shards: 5, OnEvent: after.add}, thawed)
	if err != nil {
		t.Fatal(err)
	}
	err = restored.Replay(bytes.NewReader(archive), cal, nil)
	if err != nil {
		t.Fatal(err)
	}
	restored.Close()

	want, wantEvents := replayEvents(t, Config{Shards: 4})
	diffRegistries(t, want.Registry(), restored.Registry())
	if g := acrossCut(before, after.sorted()); !reflect.DeepEqual(wantEvents, g) {
		t.Fatalf("events differ: %d vs %d", len(wantEvents), len(g))
	}
	if !bytes.Equal(checkpointBytes(t, want), checkpointBytes(t, restored)) {
		t.Fatal("resumed checkpoint differs byte-for-byte from uninterrupted")
	}
}

// deepResumeArchive is a 2-day archive of same-sized records, deep
// enough that a checkpoint at its first day close leaves a resume skip
// of more than three heartbeats: 13 000 announcements on day 0, then
// 2 000 from a second peer with other origins on day 1, which put those
// prefixes in conflict. It returns day 0's record count.
func deepResumeArchive(t testing.TB) ([]byte, Calendar, int) {
	t.Helper()
	const daySecs, day0, day1 = 86400, 13000, 2000
	var buf bytes.Buffer
	w := mrt.NewWriter(&buf)
	announce := func(ts uint32, peer bgp.ASN, i int, origin bgp.ASN) {
		u := &bgp.Update{
			NLRI:  []bgp.Prefix{bgp.PrefixFromUint32(uint32(10<<24|i<<8), 24)},
			Attrs: &bgp.Attrs{ASPath: bgp.Seq(peer, 1239, origin)},
		}
		msg := &mrt.BGP4MPMessage{PeerAS: peer, LocalAS: 65000, Family: bgp.FamilyIPv4, Data: u.AppendWire(nil)}
		msg.PeerIP[15] = byte(peer)
		if err := w.WriteBGP4MPMessage(ts, msg); err != nil {
			t.Fatal(err)
		}
	}
	for i := range day0 {
		announce(0, 64500, i, bgp.ASN(65000+i%7))
	}
	for i := range day1 {
		announce(daySecs, 64501, i, bgp.ASN(65100+i%5))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len()%(day0+day1) != 0 {
		t.Fatalf("records differ in size: %d bytes for %d records", buf.Len(), day0+day1)
	}
	return buf.Bytes(), Calendar{Days: []int{0, 1}, Times: []uint32{0, daySecs}}, day0
}

// gatedReader serves r's first gate bytes, then blocks until release
// closes.
type gatedReader struct {
	r       io.Reader
	gate    int
	release chan struct{}
}

func (g *gatedReader) Read(p []byte) (int, error) {
	if g.gate == 0 {
		<-g.release
		return g.r.Read(p)
	}
	n, err := g.r.Read(p[:min(len(p), g.gate)])
	g.gate -= n
	return n, err
}

// TestPauseDuringDeepResumeSkip: a resumed replay discards the records
// its cursor has applied before it frames any, and a Pause lands inside
// that skip — at its first heartbeat, while the archive still blocks
// short of the cursor — rather than after it. Resumed, the replay matches
// the uninterrupted run byte for byte, and its framing rate counts from
// its first framed record, not from the skip and the park before it.
func TestPauseDuringDeepResumeSkip(t *testing.T) {
	archive, cal, day0 := deepResumeArchive(t)
	whole := New(Config{Shards: 2})
	if err := whole.Replay(bytes.NewReader(archive), cal, nil); err != nil {
		t.Fatal(err)
	}
	whole.Close()
	total := int(whole.Records())
	if n := whole.Stats().TotalConflicts; n != 2000 {
		t.Fatalf("%d conflicts, want day 1's 2000", n)
	}

	// Checkpoint at the first day close, with day 0's records applied.
	first := New(Config{Shards: 2})
	stop, done := make(chan struct{}), make(chan error, 1)
	var once sync.Once
	pausing := make(chan struct{})
	go func() {
		done <- first.Replay(bytes.NewReader(archive), cal, &ReplayOptions{Stop: stop, OnDayClose: func(int) {
			once.Do(func() { first.Pause(); close(pausing) })
		}})
	}()
	select {
	case <-pausing:
	case err := <-done:
		t.Fatalf("replay ended before pausing: %v", err)
	}
	<-first.Pause()
	ck := first.Checkpoint()
	close(stop)
	if err := <-done; err != ErrReplayStopped {
		t.Fatalf("stopped replay returned %v", err)
	}
	first.Close()
	if ck.Records != uint64(day0) {
		t.Fatalf("checkpoint cursor %d, want %d", ck.Records, day0)
	}

	resumed, err := NewFromCheckpoint(Config{Shards: 3}, ck)
	if err != nil {
		t.Fatal(err)
	}
	parked := resumed.Pause()
	release := make(chan struct{})
	r := &gatedReader{r: bytes.NewReader(archive), gate: len(archive) / total * (resumeHeartbeat * 3 / 2), release: release}
	go func() { done <- resumed.Replay(r, cal, nil) }()
	select {
	case <-parked:
	case err := <-done:
		t.Fatalf("resumed replay ended before parking: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("the pause never landed inside the resume skip")
	}
	if st := resumed.Stats().Decode; resumed.Records() != uint64(day0) || st.Frames != 0 {
		t.Fatalf("parked at cursor %d with %d records framed, want %d and none", resumed.Records(), st.Frames, day0)
	}
	// Not a wait for an event: it makes the park long enough that a rate
	// counting it would read visibly low.
	time.Sleep(50 * time.Millisecond)
	close(release)
	resumedAt := time.Now()
	resumed.Resume()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(resumedAt)
	resumed.Close()

	diffRegistries(t, whole.Registry(), resumed.Registry())
	if !bytes.Equal(checkpointBytes(t, whole), checkpointBytes(t, resumed)) {
		t.Fatal("resumed checkpoint differs byte for byte from the uninterrupted run's")
	}
	st := resumed.Stats().Decode
	if st.Frames != uint64(total-day0) {
		t.Fatalf("%d records framed, want %d", st.Frames, total-day0)
	}
	if floor := float64(st.Frames) / elapsed.Seconds(); st.FramesPerSec < floor {
		t.Fatalf("frames_per_sec %.0f, below %.0f since Resume: the rate counts the skip or the park", st.FramesPerSec, floor)
	}
}
