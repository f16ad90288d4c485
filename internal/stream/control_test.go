package stream

import (
	"bytes"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"moas/internal/bgp"
	"moas/internal/core"
	"moas/internal/mrt"
	"moas/internal/synth"
)

// awaitParked spins until the engine's replay has settled and parked on
// the pause gate (at which point queries see a stable view).
func awaitParked(t *testing.T, e *Engine) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !e.parked.Load() {
		if time.Now().After(deadline) {
			t.Fatal("replay never parked on the pause gate")
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// TestPauseResume pauses a replay from the outside (the serve pause
// endpoint's path): the gate must settle all shards before parking so the
// paused view equals the batch scan of the last closed day, and resuming
// must carry the replay to the exact full-scan registry.
func TestPauseResume(t *testing.T) {
	sc, archive, want := fixtures(t)
	e := New(Config{Shards: 3})
	pauseDay := sc.ObservedDays[len(sc.ObservedDays)/3]
	replayDone := make(chan error, 1)
	go func() {
		err := e.Replay(bytes.NewReader(archive), NewCalendar(sc.ObservedDays, sc.DayStamp), &ReplayOptions{
			OnDayClose: func(day int) {
				if day == pauseDay {
					e.Pause()
				}
			},
		})
		e.Close()
		replayDone <- err
	}()

	awaitParked(t, e)
	if !e.Paused() {
		t.Fatal("Paused() false while parked")
	}
	if d := int(e.lastClosed.Load()); d != pauseDay {
		t.Fatalf("paused with last closed day %d, want %d", d, pauseDay)
	}
	obs := core.NewDetector().ObserveView(pauseDay, sc.TableViewAt(pauseDay))
	if got := len(e.ActiveConflicts()); got != obs.Count() {
		t.Fatalf("paused at day %d with %d active conflicts, batch scan sees %d",
			pauseDay, got, obs.Count())
	}

	e.Resume()
	if err := <-replayDone; err != nil {
		t.Fatal(err)
	}
	diffRegistries(t, want, e.Registry())
}

// TestPauseSignalsPark: the channel Pause returns closes once the replay
// has parked (Parked is true by then), a Pause while that request is
// pending returns the same channel, and after Resume the replay runs on
// unparked to the full-scan registry.
func TestPauseSignalsPark(t *testing.T) {
	sc, archive, want := fixtures(t)
	e := New(Config{Shards: 2})
	park := e.Pause() // primes the gate: the replay parks at its first record
	done := make(chan error, 1)
	go func() {
		done <- e.Replay(bytes.NewReader(archive), NewCalendar(sc.ObservedDays, sc.DayStamp), nil)
	}()
	select {
	case <-park:
	case <-time.After(10 * time.Second):
		t.Fatal("Pause's channel never closed")
	}
	if !e.Parked() {
		t.Fatal("Pause's channel closed before Parked() turned true")
	}
	if again := e.Pause(); again != park {
		t.Fatal("a second Pause returned a new channel")
	}
	e.Resume()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if e.Parked() {
		t.Fatal("Parked() true after Resume")
	}
	if next := e.Pause(); next == park {
		t.Fatal("a Pause after Resume returned the released request's channel")
	}
	e.Resume()
	e.Close()
	diffRegistries(t, want, e.Registry())
}

// TestResumeWakesPauseWaiter: a pause request withdrawn before any feed
// parked on it still closes its channel, so a waiter wakes at once and
// re-judges (Parked is false) instead of waiting out its deadline.
func TestResumeWakesPauseWaiter(t *testing.T) {
	e := New(Config{Shards: 1})
	defer e.Close()
	park := e.Pause()
	e.Resume()
	select {
	case <-park:
	case <-time.After(5 * time.Second):
		t.Fatal("Resume withdrew the pause but never closed its channel")
	}
	if e.Parked() {
		t.Fatal("Parked() true on an engine that never ran")
	}
	e.Resume() // withdrawing nothing is still a no-op
}

// TestReplayStop: closing ReplayOptions.Stop aborts the replay at the next
// record boundary with ErrReplayStopped, leaving the engine queryable at
// the day the stop landed on.
func TestReplayStop(t *testing.T) {
	sc, archive, _ := fixtures(t)
	e := New(Config{Shards: 2})
	stop := make(chan struct{})
	stopDay := sc.ObservedDays[len(sc.ObservedDays)/2]
	err := e.Replay(bytes.NewReader(archive), NewCalendar(sc.ObservedDays, sc.DayStamp), &ReplayOptions{
		OnDayClose: func(day int) {
			if day == stopDay {
				close(stop)
			}
		},
		Stop: stop,
	})
	if err != ErrReplayStopped {
		t.Fatalf("Replay = %v, want ErrReplayStopped", err)
	}
	e.Close()
	if d := int(e.lastClosed.Load()); d != stopDay {
		t.Fatalf("stopped with last closed day %d, want %d", d, stopDay)
	}
}

// TestStopWakesPausedReplay: a stop must release a parked replay (serve
// deletes scenarios that may be paused) without dispatching anything.
func TestStopWakesPausedReplay(t *testing.T) {
	sc, archive, _ := fixtures(t)
	e := New(Config{Shards: 1})
	e.Pause()
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- e.Replay(bytes.NewReader(archive), NewCalendar(sc.ObservedDays, sc.DayStamp), &ReplayOptions{Stop: stop})
	}()
	awaitParked(t, e)
	close(stop)
	if err := <-done; err != ErrReplayStopped {
		t.Fatalf("Replay = %v, want ErrReplayStopped", err)
	}
	if n := e.Stats().Messages; n != 0 {
		t.Fatalf("paused replay dispatched %d messages before stopping", n)
	}
	e.Close()
}

// TestOnEventHook: the subscription callback must deliver every lifecycle
// event exactly once, with each prefix's events arriving in seq order —
// the contract serve's SSE hub builds on.
func TestOnEventHook(t *testing.T) {
	sc, archive, _ := fixtures(t)
	var mu sync.Mutex
	var got []Event
	e := New(Config{Shards: 4, OnEvent: func(ev Event) {
		mu.Lock()
		got = append(got, ev)
		mu.Unlock()
	}})
	if err := e.Replay(bytes.NewReader(archive), NewCalendar(sc.ObservedDays, sc.DayStamp), nil); err != nil {
		t.Fatal(err)
	}
	e.Close()

	// Per-prefix arrival order must match per-prefix seq order.
	lastSeq := map[bgp.Prefix]uint64{}
	for _, ev := range got {
		if ev.Seq != lastSeq[ev.Prefix]+1 {
			t.Fatalf("%s: OnEvent delivered seq %d after %d", ev.Prefix, ev.Seq, lastSeq[ev.Prefix])
		}
		lastSeq[ev.Prefix] = ev.Seq
	}

	// As a multiset the callback stream equals the engine's event log.
	want := e.Events()
	sort.Slice(got, func(i, j int) bool {
		a, b := &got[i], &got[j]
		if a.Day != b.Day {
			return a.Day < b.Day
		}
		if c := a.Prefix.Compare(b.Prefix); c != 0 {
			return c < 0
		}
		return a.Seq < b.Seq
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("OnEvent stream diverges from event log: %d vs %d events", len(got), len(want))
	}
}

// TestArchiveCalendar: the calendar derived from a BGP4MP file's own
// timestamps must be exactly the message-carrying subsequence of the
// scenario's calendar (quiet observed days are invisible in a bare MRT
// file), shifted so the first observed day is 0, and must replay to the
// same conflict population.
func TestArchiveCalendar(t *testing.T) {
	sc, archive, _ := fixtures(t)
	want := NewCalendar(sc.ObservedDays, sc.DayStamp)
	got, err := ArchiveCalendar(bytes.NewReader(archive))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Days) == 0 || len(got.Days) > len(want.Days) {
		t.Fatalf("derived %d observed days, scenario has %d", len(got.Days), len(want.Days))
	}
	dayByTime := map[uint32]int{}
	for i, ts := range want.Times {
		dayByTime[ts] = want.Days[i]
	}
	if got.Times[0] != want.Times[0] {
		t.Fatalf("first derived day boundary %d, scenario starts at %d (day 0 carries the bootstrap burst)",
			got.Times[0], want.Times[0])
	}
	base := dayByTime[got.Times[0]]
	for i, ts := range got.Times {
		scDay, ok := dayByTime[ts]
		if !ok {
			t.Fatalf("derived day boundary %d matches no scenario observed day", ts)
		}
		if got.Days[i] != scDay-base {
			t.Fatalf("day %d: derived index %d, want %d", i, got.Days[i], scDay-base)
		}
	}

	e := New(Config{Shards: 2})
	if err := e.Replay(bytes.NewReader(archive), got, nil); err != nil {
		t.Fatal(err)
	}
	e.Close()
	ref := replayAll(t, Config{Shards: 2})
	if a, b := e.Stats().TotalConflicts, ref.Stats().TotalConflicts; a != b {
		t.Fatalf("derived-calendar replay found %d conflicts, scenario-calendar replay %d", a, b)
	}
	if a, b := len(e.ActiveConflicts()), len(ref.ActiveConflicts()); a != b {
		t.Fatalf("derived-calendar replay ends with %d active, scenario-calendar replay %d", a, b)
	}

	if _, err := ArchiveCalendar(bytes.NewReader(nil)); err == nil {
		t.Fatal("ArchiveCalendar accepted an empty archive")
	}
}

// TestNewCalendar: the calendar of a known writer keeps the days it is
// given, gaps and all, stamps each through the writer's function, and
// owns its slices. The second case is the calendar serve builds for the
// stress scale and the oracle for every synth archive: days 0..n-1 at
// d*86400.
func TestNewCalendar(t *testing.T) {
	days := []int{0, 1, 2, 5, 9}
	cal := NewCalendar(days, func(d int) uint32 { return 1000 + uint32(d)*86400 })
	want := Calendar{Days: []int{0, 1, 2, 5, 9}, Times: []uint32{1000, 87400, 173800, 433000, 778600}}
	if !reflect.DeepEqual(cal, want) {
		t.Fatalf("calendar with gaps = %+v, want %+v", cal, want)
	}
	days[0] = 7
	if cal.Days[0] != 0 {
		t.Fatal("calendar aliases the caller's day slice")
	}

	stress := NewCalendar([]int{0, 1, 2, 3, 4, 5}, synth.DayTime)
	for d := range stress.Days {
		if stress.Days[d] != d || stress.Times[d] != uint32(d)*86400 {
			t.Fatalf("stress calendar day %d = (%d, %d)", d, stress.Days[d], stress.Times[d])
		}
	}
	// It drives the calendar clock like any other: a record stamped on
	// day 5 closes 0 through 4 and lands on 5.
	clock := &calendarClock{cal: stress}
	for want := 0; want < 5; want++ {
		if day, ok := clock.due(atRecord, stress.Times[5]); !ok || day != want {
			t.Fatalf("close %d: due = (%d, %v)", want, day, ok)
		}
	}
	if today, err := clock.today(); err != nil || today != 5 {
		t.Fatalf("today = (%d, %v), want day 5", today, err)
	}

	if empty := NewCalendar(nil, synth.DayTime); len(empty.Days) != 0 || len(empty.Times) != 0 {
		t.Fatalf("empty calendar = %+v", empty)
	}
}

// TestPauseBeforeQuietDays: a pause requested from a day close must park
// the replay at that day even when the record in hand implies more closes
// — quiet observed days between it and the previous record. The archive
// has records on days 0 and 3 of a four-day calendar; pausing from
// OnDayClose(0) parks with day 0 the last one closed (not day 2) and the
// day-3 record uncounted, and both a resume of the parked replay and a
// restore from a checkpoint taken at the park end byte-identical to an
// uninterrupted replay.
func TestPauseBeforeQuietDays(t *testing.T) {
	const daySecs = 86400
	cal := Calendar{Days: []int{0, 1, 2, 3}, Times: []uint32{0, daySecs, 2 * daySecs, 3 * daySecs}}
	var buf bytes.Buffer
	w := mrt.NewWriter(&buf)
	p := bgp.MustParsePrefix("10.0.0.0/8")
	write := func(ts uint32, peerAS bgp.ASN, u *bgp.Update) {
		msg := &mrt.BGP4MPMessage{PeerAS: peerAS, LocalAS: 65000, Family: bgp.FamilyIPv4, Data: u.AppendWire(nil)}
		msg.PeerIP[15] = byte(peerAS)
		if err := w.WriteBGP4MPMessage(ts, msg); err != nil {
			t.Fatal(err)
		}
	}
	// A two-origin conflict opens on day 0, runs through quiet days 1
	// and 2, and ends on day 3 when one origin withdraws.
	write(10, 64501, &bgp.Update{NLRI: []bgp.Prefix{p}, Attrs: &bgp.Attrs{ASPath: bgp.Seq(64501, 70)}})
	write(20, 64502, &bgp.Update{NLRI: []bgp.Prefix{p}, Attrs: &bgp.Attrs{ASPath: bgp.Seq(64502, 71)}})
	write(3*daySecs+5, 64502, &bgp.Update{Withdrawn: []bgp.Prefix{p}})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	archive := buf.Bytes()

	want := New(Config{Shards: 2})
	if err := want.Replay(bytes.NewReader(archive), cal, nil); err != nil {
		t.Fatal(err)
	}
	want.Close()
	if want.Registry().Len() != 1 {
		t.Fatalf("uninterrupted replay found %d conflicts, want 1", want.Registry().Len())
	}

	e := New(Config{Shards: 2})
	replayDone := make(chan error, 1)
	go func() {
		replayDone <- e.Replay(bytes.NewReader(archive), cal, &ReplayOptions{
			OnDayClose: func(day int) {
				if day == 0 {
					e.Pause()
				}
			},
		})
	}()
	awaitParked(t, e)
	if d := e.LastClosedDay(); d != 0 {
		t.Fatalf("parked with last closed day %d, want 0 (quiet days 1 and 2 must wait for the resume)", d)
	}
	if n := e.Records(); n != 2 {
		t.Fatalf("parked with cursor %d, want 2 (the day-3 record in hand is uncounted)", n)
	}
	ck := e.Checkpoint()

	restored, err := NewFromCheckpoint(Config{Shards: 3}, ck)
	if err != nil {
		t.Fatal(err)
	}
	err = restored.Replay(bytes.NewReader(archive), cal, nil)
	if err != nil {
		t.Fatal(err)
	}
	restored.Close()

	e.Resume()
	if err := <-replayDone; err != nil {
		t.Fatal(err)
	}
	e.Close()

	wantCk := checkpointBytes(t, want)
	for name, got := range map[string]*Engine{"resumed": e, "restored": restored} {
		diffRegistries(t, want.Registry(), got.Registry())
		if !bytes.Equal(wantCk, checkpointBytes(t, got)) {
			t.Fatalf("%s replay's checkpoint differs from the uninterrupted one", name)
		}
	}
}
