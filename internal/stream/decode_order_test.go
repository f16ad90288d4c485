package stream

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"runtime"
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

// TestDecodeErrorOrderingAcrossWorkers pins the pipeline's error
// semantics at every worker count: a mid-archive corrupt record surfaces
// its error only after every day close implied by earlier timestamps
// (including its own), with the record cursor stopped exactly at the
// corrupt record and nothing after it applied.
func TestDecodeErrorOrderingAcrossWorkers(t *testing.T) {
	archive, cal, _ := errOrderArchive(t)
	const wantErr = "stream: embedded message: bgp: bad message: bad marker"

	var wantEvents []Event
	for _, workers := range []int{1, 4, 8} {
		e := New(Config{Shards: 2, DecodeWorkers: workers})
		err := e.Replay(bytes.NewReader(archive), cal, nil)
		e.Close()
		if err == nil || err.Error() != wantErr {
			t.Fatalf("workers=%d: replay of corrupt archive returned %v, want %q", workers, err, wantErr)
		}
		if n := e.Records(); n != 20 {
			t.Fatalf("workers=%d: cursor at %d records, want 20 (the corrupt record is uncounted)", workers, n)
		}
		st := e.Stats()
		if st.Messages != 20 {
			t.Fatalf("workers=%d: %d messages applied, want 20 (nothing after the corruption)", workers, st.Messages)
		}
		if st.LastClosedDay != 2 {
			t.Fatalf("workers=%d: last closed day %d, want 2 (closes implied by the corrupt record's own timestamp)", workers, st.LastClosedDay)
		}
		if wantEvents == nil {
			wantEvents = e.Events()
		} else if got := e.Events(); !reflect.DeepEqual(got, wantEvents) {
			t.Fatalf("workers=%d event log diverged: %d vs %d events", workers, len(got), len(wantEvents))
		}
	}
}

// TestDecodeTruncationAcrossWorkers pins stream-level (framing) errors
// the same way: an archive cut inside its final record fails with
// io.ErrUnexpectedEOF at every worker count, with every record before the
// cut applied and counted.
func TestDecodeTruncationAcrossWorkers(t *testing.T) {
	sc, archive, _ := fixtures(t)
	cal := NewCalendar(sc.ObservedDays, sc.DayStamp)
	whole := replayAll(t, Config{Shards: 2})
	truncated := archive[:len(archive)-7]

	for _, workers := range []int{1, 4, 8} {
		e := New(Config{Shards: 2, DecodeWorkers: workers})
		err := e.Replay(bytes.NewReader(truncated), cal, nil)
		e.Close()
		if err != io.ErrUnexpectedEOF {
			t.Fatalf("workers=%d: truncated archive returned %v, want io.ErrUnexpectedEOF", workers, err)
		}
		if got, want := e.Records(), whole.Records()-1; got != want {
			t.Fatalf("workers=%d: cursor at %d records, want %d (all but the cut one)", workers, got, want)
		}
	}
}

// TestDecodeWorkerInvariance is the pipeline's equivalence claim: a full
// fixture replay at workers ∈ {1, 4, 8} produces the batch full scan's
// registry (driver.RunFullScanScenario over the same scenario) and one
// event log and binary checkpoint, byte for byte, across worker counts.
func TestDecodeWorkerInvariance(t *testing.T) {
	sc, archive, want := fixtures(t)
	cal := NewCalendar(sc.ObservedDays, sc.DayStamp)

	var wantEvents []Event
	var wantCk []byte
	for _, workers := range []int{1, 4, 8} {
		e := New(Config{Shards: 3, DecodeWorkers: workers})
		if err := e.Replay(bytes.NewReader(archive), cal, nil); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		e.Close()
		if st := e.Stats(); st.Decode.Workers != workers {
			t.Fatalf("stats report %d workers, want %d", st.Decode.Workers, workers)
		}
		diffRegistries(t, want, e.Registry())
		ck := checkpointBytes(t, e)
		if wantEvents == nil {
			wantEvents, wantCk = e.Events(), ck
			continue
		}
		if got := e.Events(); !reflect.DeepEqual(wantEvents, got) {
			t.Fatalf("workers=%d event logs differ: %d vs %d events", workers, len(wantEvents), len(got))
		}
		if !bytes.Equal(wantCk, ck) {
			t.Fatalf("workers=%d binary checkpoint differs (%d vs %d bytes)", workers, len(wantCk), len(ck))
		}
	}
}

// TestFinishedReplayReleasesRing: once Replay returns, nothing on the
// engine may keep the decode ring alive — at eight workers that is 18
// batches (~4 MB of frame arenas and pre-carved slots) per finished
// scenario. The stage handle the engine keeps for /stats holds counters
// only, so dropping it must free next to nothing, and the decode stats
// stay readable through it.
func TestFinishedReplayReleasesRing(t *testing.T) {
	e := replayAll(t, Config{Shards: 1, DecodeWorkers: 8})

	st := e.Stats().Decode
	if st.Workers != 8 || st.Frames != e.Records() || st.FramesPerSec <= 0 {
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

// TestIngestWaitsOnUndecodedBatch: an archive batch reaches the ingest
// loop in framing order, possibly before its decode worker is done with
// it. The loop must not touch it until its ready signal fires, and that
// wait must still give way to a stop and to a contained worker failure —
// a worker that panicked never signals, so a loop waiting on ready alone
// would hang behind it.
func TestIngestWaitsOnUndecodedBatch(t *testing.T) {
	errWorker := errors.New("decode worker failed")
	for _, tc := range []struct {
		name string
		end  func(e *Engine, stop chan struct{})
		want error
	}{
		{"stop", func(_ *Engine, stop chan struct{}) { close(stop) }, ErrReplayStopped},
		{"failure", func(e *Engine, _ chan struct{}) { e.recordFailure(errWorker) }, errWorker},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			e := New(Config{Shards: 2})
			// A terminal batch: applied without waiting, it would end the
			// feed cleanly at once and close day 0.
			b := newDecBatch(decBatchLen)
			b.err = io.EOF
			out, free := make(chan *decBatch, 1), make(chan *decBatch, 1)
			out <- b
			stop := make(chan struct{})
			res := make(chan error, 1)
			go func() {
				res <- e.ingest(feed{
					out: out, free: free, stop: stop,
					clock: &calendarClock{cal: Calendar{Days: []int{0}, Times: []uint32{0}}},
				})
			}()
			select {
			case err := <-res:
				t.Fatalf("ingest returned %v before the batch was decoded", err)
			case <-time.After(50 * time.Millisecond):
			}
			tc.end(e, stop)
			select {
			case err := <-res:
				if err != tc.want {
					t.Fatalf("ingest returned %v, want %v", err, tc.want)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("ingest still waiting on the undecoded batch")
			}
			if d := e.LastClosedDay(); d != -1 {
				t.Fatalf("day %d closed: the undecoded batch was applied", d)
			}
			e.Close()
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Fatalf("%d goroutines before, %d after", before, after)
			}
		})
	}
}

// TestParallelDecodeCheckpointResume parks a workers=8 replay mid-stream
// (read-ahead batches in flight through the frame ring, some decoded and
// some not), checkpoints, restores into a different shard and worker
// layout, finishes the archive, and proves the result byte-identical to
// an uninterrupted replay — read-ahead past the park point must leave no
// trace in the checkpoint.
func TestParallelDecodeCheckpointResume(t *testing.T) {
	sc, archive, _ := fixtures(t)
	cal := NewCalendar(sc.ObservedDays, sc.DayStamp)

	ck, _ := checkpointAtDay(t, Config{Shards: 3, DecodeWorkers: 8}, len(cal.Days)/2)
	if ck.Records == 0 {
		t.Fatalf("checkpoint cursor empty: %+v", ck)
	}

	// Round-trip the checkpoint through JSON, as the durable store does.
	blob, err := json.Marshal(ck)
	if err != nil {
		t.Fatal(err)
	}
	var thawed Checkpoint
	if err := json.Unmarshal(blob, &thawed); err != nil {
		t.Fatal(err)
	}

	restored, err := NewFromCheckpoint(Config{Shards: 5, DecodeWorkers: 4}, &thawed)
	if err != nil {
		t.Fatal(err)
	}
	err = restored.Replay(bytes.NewReader(archive), cal, nil)
	if err != nil {
		t.Fatal(err)
	}
	restored.Close()

	want := replayAll(t, Config{Shards: 4, DecodeWorkers: 1})
	diffRegistries(t, want.Registry(), restored.Registry())
	if w, g := want.Events(), restored.Events(); !reflect.DeepEqual(w, g) {
		t.Fatalf("event logs differ: %d vs %d events", len(w), len(g))
	}
	if !bytes.Equal(checkpointBytes(t, want), checkpointBytes(t, restored)) {
		t.Fatal("resumed checkpoint differs byte-for-byte from uninterrupted")
	}
}
