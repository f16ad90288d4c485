package stream

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"runtime"
	"testing"

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

	// Round-trip the checkpoint through JSON, as the durable store does.
	blob, err := json.Marshal(ck)
	if err != nil {
		t.Fatal(err)
	}
	var thawed Checkpoint
	if err := json.Unmarshal(blob, &thawed); err != nil {
		t.Fatal(err)
	}

	var after eventSink
	restored, err := NewFromCheckpoint(Config{Shards: 5, OnEvent: after.add}, &thawed)
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
