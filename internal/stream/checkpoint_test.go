package stream

import (
	"bytes"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"moas/internal/bgp"
	"moas/internal/core"
	"moas/internal/kernel"
)

// checkpointAtDay replays the fixture archive until the given observed
// day closes, pauses there, waits for the park, checkpoints, and aborts
// the rest of the replay. It returns the checkpoint, the number of days
// closed and the events OnEvent delivered before the park, in canonical
// order; an event delivered after the park, before the aborted replay
// returns and the engine closes, fails the test.
func checkpointAtDay(t testing.TB, cfg Config, stopAfterDays int) (*Checkpoint, int, []Event) {
	t.Helper()
	sc, archive, _ := fixtures(t)
	cal := NewCalendar(sc.ObservedDays, sc.DayStamp)
	var evs eventSink
	cfg.OnEvent = evs.add
	e := New(cfg)

	closed := 0
	stop := make(chan struct{})
	done := make(chan error, 1)
	paused := make(chan struct{})
	go func() {
		done <- e.Replay(bytes.NewReader(archive), cal, &ReplayOptions{
			Stop: stop,
			OnDayClose: func(day int) {
				closed++
				if closed == stopAfterDays {
					e.Pause()
					close(paused)
				}
			},
		})
	}()
	select {
	case <-paused:
	case err := <-done:
		t.Fatalf("replay ended before pausing: %v", err)
	}
	// The request is still pending, so Pause hands back its channel.
	select {
	case <-e.Pause():
	case <-time.After(30 * time.Second):
		t.Fatal("replay never parked")
	}
	before := evs.sorted()
	ck := e.Checkpoint()
	close(stop)
	if err := <-done; err != ErrReplayStopped {
		t.Fatalf("aborted replay returned %v", err)
	}
	e.Close()
	if n := evs.len(); n != len(before) {
		t.Fatalf("%d events delivered after the park", n-len(before))
	}
	return ck, closed, before
}

// acrossCut is the event record of a run cut by a checkpoint: the events
// delivered before the park, then the restored engine's, in canonical
// order.
func acrossCut(before, after []Event) []Event {
	evs := slices.Concat(before, after)
	kernel.SortEvents(evs)
	return evs
}

// TestEventsCutAtPark: OnEvent is the engine's one record of lifecycle
// events, and a checkpoint cuts it cleanly. Every event of what was
// applied is delivered by the time Pause's channel closes, none arrives
// between the park and the aborted replay's return, and the restored
// engine — at another shard count — delivers exactly the rest: together
// they are the uninterrupted run's events, none lost and none twice. The
// cut is tried early and late, and the image crosses the binary codec as
// a recovered checkpoint does.
func TestEventsCutAtPark(t *testing.T) {
	sc, archive, _ := fixtures(t)
	cal := NewCalendar(sc.ObservedDays, sc.DayStamp)
	_, want := replayEvents(t, Config{Shards: 2})
	for _, c := range []struct{ day, from, to int }{
		{1, 1, 4}, {2 * len(cal.Days) / 3, 3, 2},
	} {
		ck, _, before := checkpointAtDay(t, Config{Shards: c.from}, c.day)
		bin, err := AppendCheckpointBinary(nil, ck)
		if err != nil {
			t.Fatal(err)
		}
		thawed, err := DecodeCheckpointBinary(bin)
		if err != nil {
			t.Fatal(err)
		}
		var after eventSink
		restored, err := NewFromCheckpoint(Config{Shards: c.to, OnEvent: after.add}, thawed)
		if err != nil {
			t.Fatal(err)
		}
		if err := restored.Replay(bytes.NewReader(archive), cal, nil); err != nil {
			t.Fatal(err)
		}
		restored.Close()
		rest := after.sorted()
		if len(before) == 0 || len(rest) == 0 {
			t.Fatalf("cut after day close %d: %d events before, %d after: not a cut between events", c.day, len(before), len(rest))
		}
		if got := acrossCut(before, rest); !reflect.DeepEqual(want, got) {
			t.Fatalf("cut after day close %d (%d → %d shards): %d + %d events, uninterrupted %d",
				c.day, c.from, c.to, len(before), len(rest), len(want))
		}
	}
}

// resumeMatchesUninterrupted checkpoints a replay at `from` shards after
// day close `cut`, passes the image through thaw, restores it at `to`
// shards, feeds it the rest of the archive and holds the result to an
// uninterrupted replay: registry, events delivered across the cut, ended
// activations, active conflicts and counters.
func resumeMatchesUninterrupted(t *testing.T, cut, from, to int, thaw func(*Checkpoint) *Checkpoint) {
	t.Helper()
	sc, archive, _ := fixtures(t)
	cal := NewCalendar(sc.ObservedDays, sc.DayStamp)

	ck, daysClosed, before := checkpointAtDay(t, Config{Shards: from}, cut)
	if daysClosed != cut || ck.Records == 0 || ck.LastClosedDay < 0 {
		t.Fatalf("cut %d: paused after %d day closes with cursor %d records, day %d",
			cut, daysClosed, ck.Records, ck.LastClosedDay)
	}

	var after eventSink
	restored, err := NewFromCheckpoint(Config{Shards: to, OnEvent: after.add}, thaw(ck))
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Replay(bytes.NewReader(archive), cal, nil); err != nil {
		t.Fatal(err)
	}
	restored.Close()

	want, wantEvents := replayEvents(t, Config{Shards: 4})
	diffRegistries(t, want.Registry(), restored.Registry())
	if g := acrossCut(before, after.sorted()); !reflect.DeepEqual(wantEvents, g) {
		t.Fatalf("cut %d: events differ: %d vs %d", cut, len(wantEvents), len(g))
	}
	if w, g := want.Checkpoint().Kernel.ClosedSpans, restored.Checkpoint().Kernel.ClosedSpans; !reflect.DeepEqual(w, g) {
		t.Fatalf("cut %d: ended activations differ:\nwant %v\n got %v", cut, w, g)
	}
	if w, g := want.ActiveConflicts(), restored.ActiveConflicts(); !reflect.DeepEqual(w, g) {
		t.Fatalf("cut %d: active conflicts differ: %d vs %d", cut, len(w), len(g))
	}
	ws, gs := want.Stats(), restored.Stats()
	if ws.Messages != gs.Messages || ws.Ops != gs.Ops || ws.Events != gs.Events ||
		ws.LastClosedDay != gs.LastClosedDay || ws.ActiveConflicts != gs.ActiveConflicts ||
		ws.TotalConflicts != gs.TotalConflicts || ws.Lifecycle != gs.Lifecycle {
		t.Fatalf("cut %d: stats differ:\nwant %+v\n got %+v", cut, ws, gs)
	}
}

// TestCheckpointResumeMatchesUninterrupted is the persistence acceptance
// test for the engine image itself: a mid-archive checkpoint restored as
// taken — no codec in between — into a different shard count and fed the
// rest of the archive ends in exactly the state of an uninterrupted
// replay. TestBinaryCheckpointResumeMatchesUninterrupted adds the codec.
func TestCheckpointResumeMatchesUninterrupted(t *testing.T) {
	sc, _, _ := fixtures(t)
	cal := NewCalendar(sc.ObservedDays, sc.DayStamp)
	resumeMatchesUninterrupted(t, len(cal.Days)/2, 3, 5, func(ck *Checkpoint) *Checkpoint { return ck })
}

// TestCheckpointOfFinishedEngine: checkpointing after a complete replay
// and restoring yields the same queryable state, and resuming the replay
// is a no-op that ends cleanly: it delivers no event.
func TestCheckpointOfFinishedEngine(t *testing.T) {
	sc, archive, _ := fixtures(t)
	cal := NewCalendar(sc.ObservedDays, sc.DayStamp)
	want := replayAll(t, Config{Shards: 2})
	ck := want.Checkpoint()

	var after eventSink
	restored, err := NewFromCheckpoint(Config{Shards: 2, OnEvent: after.add}, ck)
	if err != nil {
		t.Fatal(err)
	}
	err = restored.Replay(bytes.NewReader(archive), cal, nil)
	if err != nil {
		t.Fatal(err)
	}
	restored.Close()
	diffRegistries(t, want.Registry(), restored.Registry())
	if n := after.len(); n != 0 {
		t.Fatalf("resuming a finished replay delivered %d events", n)
	}
	if w, g := want.Stats().Events, restored.Stats().Events; w != g {
		t.Fatalf("event counts differ: %d vs %d", w, g)
	}
}

// TestCheckpointVersionRejected: a future-version checkpoint must not
// restore.
func TestCheckpointVersionRejected(t *testing.T) {
	e := New(Config{Shards: 1})
	e.Close()
	ck := e.Checkpoint()
	ck.Version = 99
	if _, err := NewFromCheckpoint(Config{Shards: 1}, ck); err == nil {
		t.Fatal("restore accepted a version-99 checkpoint")
	}
}

// TestCheckpointHostileInput feeds the decoder the malformed and
// adversarial images a corrupted or forged file can carry. Each row
// starts from the scripted checkpoint (the rows about an event log or a
// history from its frozen image with kernel snapshot version 2 or 3, the
// last to carry one) and damages it — as an image (mutate: its encoding
// then carries the damage) or as MCKP v2 bytes, whichever can express it
// — and must end as its want says, at decode or at restore, without a
// panic and without leaking the shard goroutines NewFromCheckpoint starts
// before it can know the image is bad.
func TestCheckpointHostileInput(t *testing.T) {
	pa := bgp.MustParsePrefix("10.0.0.0/8")
	pc := bgp.MustParsePrefix("2001:db8::/32")
	routesOf := func(ck *Checkpoint, p bgp.Prefix) *PrefixRoutes {
		for i := range ck.Routes {
			if ck.Routes[i].Prefix == p {
				return &ck.Routes[i]
			}
		}
		t.Fatalf("fixture has no routes for %v", p)
		return nil
	}
	replaceBin := func(old, new []byte) func([]byte) []byte {
		return func(bin []byte) []byte {
			if !bytes.Contains(bin, old) {
				t.Fatalf("fixture binary has no % x", old)
			}
			return bytes.Replace(bin, old, new, 1)
		}
	}
	base := tinyCheckpoint(t)
	otherAttrs := routesOf(base, pa).Routes[0].Attrs
	blocks := map[string]bool{}
	for _, pr := range base.Routes {
		for _, rt := range pr.Routes {
			blocks[string(rt.Attrs)] = true
		}
	}

	orphan := kernel.ConflictSnap{Prefix: bgp.MustParsePrefix("203.0.113.0/24"), FirstDay: 3, LastDay: 9,
		DaysObserved: 4, OriginsEver: []bgp.ASN{5, 6}, ClassDays: []int{0, 0, 4, 0, 0}}

	const (
		failsDecode = iota
		failsRestore
		restores
	)
	rows := []struct {
		name    string
		mutate  func(ck *Checkpoint)
		editBin func(bin []byte) []byte
		// editSnap1 edits the frozen container-v2 fixture, whose kernel
		// section is snapshot version 1.
		editSnap1 func(bin []byte) []byte
		// fixture, when set, is the frozen fixture editBin edits instead
		// of the current image: the one whose kernel section is snapshot
		// version 2, which carries an event log, or 3, which carries
		// per-prefix histories.
		fixture string
		want    int
		check   func(t *testing.T, e *Engine)
	}{
		{name: "prefix longer than its family", want: failsDecode,
			// Compact form of 10.0.0.0/8: family 1, 8 bits, one address byte.
			editBin: func(bin []byte) []byte { return bytes.Replace(bin, []byte{1, 8, 10}, []byte{1, 33, 10}, 1) }},
		{name: "prefix empty", want: failsDecode,
			editBin: func(bin []byte) []byte { return bytes.Replace(bin, []byte{1, 8, 10}, []byte{0, 8, 10}, 1) }},
		{name: "attrs index equal to the block table length", want: failsDecode,
			// The file ends with the last route's block index, one byte
			// for a table this small.
			editBin: func(bin []byte) []byte { bin[len(bin)-1] = byte(len(blocks)); return bin }},
		{name: "attrs block that does not parse", want: failsRestore,
			mutate: func(ck *Checkpoint) { ck.Routes[0].Routes[0].Attrs = WireAttrs{0x40, 0x01} }},
		{name: "kernel prefix repeated", want: failsRestore,
			mutate: func(ck *Checkpoint) { ck.Kernel.Prefixes = append(ck.Kernel.Prefixes, ck.Kernel.Prefixes[0]) }},
		{name: "class byte 200 in a prefix state", want: failsRestore,
			mutate: func(ck *Checkpoint) { ck.Kernel.Prefixes[0].Class = 200 }},
		// The event log of a version-2 kernel section is checked before it
		// is dropped. Its last event ends 192.0.2.0/24's conflict: type 4,
		// day 2, seq 2, the prefix (1, 24, 192, 0, 2), no origins, the
		// previous ones (2, 42, 43), class 0 and previous class 3.
		{name: "class byte 200 in a logged event", want: failsDecode, fixture: frozenBinarySnap2,
			editBin: replaceBin([]byte{4, 4, 2, 1, 24, 192, 0, 2, 0, 2, 42, 43, 0, 3}, []byte{4, 4, 2, 1, 24, 192, 0, 2, 0, 2, 42, 43, 0, 200})},
		// A current kernel section carries no log and no histories; one
		// that does — a version-2 or 3 section renumbered — is refused.
		{name: "event log in a current kernel snapshot", want: failsDecode, fixture: frozenBinarySnap2,
			editBin: replaceBin([]byte("MSNP\x02"), []byte("MSNP\x04"))},
		{name: "histories in a current kernel snapshot", want: failsDecode, fixture: frozenBinarySnap3,
			editBin: replaceBin([]byte("MSNP\x03"), []byte("MSNP\x04"))},
		// Histories no kernel could have retained. 10.0.0.0/8 holds two
		// events, ordinals 1 and 2. A version-1 kernel section spells
		// each event in full — it opens 10.0.0.0/8's first with type 1,
		// day 0, seq 1, then the prefix (1, 8, 10); the
		// prefix's entry opens with the prefix, its origins (3, 7, 9,
		// 11), class 3, seq 2, since 0 and the history count 2, in every
		// version that carries histories.
		{name: "history event of type 7", want: failsDecode,
			editSnap1: replaceBin([]byte{1, 0, 1, 1, 8, 10}, []byte{7, 0, 1, 1, 8, 10})},
		{name: "history event of another prefix", want: failsDecode,
			editSnap1: replaceBin([]byte{1, 0, 1, 1, 8, 10}, []byte{1, 0, 1, 1, 8, 11})},
		{name: "history ordinals that skip", want: failsDecode,
			editSnap1: replaceBin([]byte{1, 0, 1, 1, 8, 10}, []byte{1, 0, 0, 1, 8, 10})},
		{name: "history that does not end at its prefix's ordinal", want: failsDecode,
			editSnap1: replaceBin([]byte{1, 8, 10, 3, 7, 9, 11, 3, 2, 0, 2}, []byte{1, 8, 10, 3, 7, 9, 11, 3, 3, 0, 2}),
			// A compact history has no ordinals of its own: the one it
			// cannot end at is one below its event count.
			fixture: frozenBinarySnap3,
			editBin: replaceBin([]byte{1, 8, 10, 3, 7, 9, 11, 3, 2, 0, 2}, []byte{1, 8, 10, 3, 7, 9, 11, 3, 1, 0, 2})},
		{name: "closed span day beyond 32 bits", want: failsRestore,
			mutate: func(ck *Checkpoint) { ck.Kernel.ClosedSpans[0].End = 1 << 40 }},
		{name: "conflict record for a prefix without a state", want: restores,
			mutate: func(ck *Checkpoint) { ck.Kernel.Conflicts = append(ck.Kernel.Conflicts, orphan) },
			check: func(t *testing.T, e *Engine) {
				want := &core.Conflict{Prefix: orphan.Prefix, FirstDay: 3, LastDay: 9, DaysObserved: 4,
					OriginsEver: []bgp.ASN{5, 6}, ClassDays: [core.NumClasses]int{2: 4}}
				if got, _ := e.Registry().Get(orphan.Prefix); !reflect.DeepEqual(got, want) {
					t.Fatalf("restored as %+v, want %+v", got, want)
				}
				if got := e.Prefix(orphan.Prefix); got.Active || !reflect.DeepEqual(got.Conflict, want) {
					t.Fatalf("prefix query: %+v, want inactive with record %+v", got, want)
				}
				saved := e.Checkpoint().Kernel.Conflicts
				if last := saved[len(saved)-1]; !reflect.DeepEqual(last, orphan) { // 203/8 sorts last
					t.Fatalf("saved again as %+v, want %+v", last, orphan)
				}
			}},
		{name: "conflict record repeated", want: restores,
			mutate: func(ck *Checkpoint) {
				again := ck.Kernel.Conflicts[0]
				again.DaysObserved = 99
				ck.Kernel.Conflicts = append(ck.Kernel.Conflicts, again)
			},
			check: func(t *testing.T, e *Engine) {
				if got, _ := e.Registry().Get(base.Kernel.Conflicts[0].Prefix); got == nil || got.DaysObserved != 99 {
					t.Fatalf("repeated record restored as %+v, want the last entry's 99 days", got)
				}
				if n := e.Stats().TotalConflicts; n != len(base.Kernel.Conflicts) {
					t.Fatalf("%d conflicts, want %d: a repeated record is one", n, len(base.Kernel.Conflicts))
				}
			}},
		{name: "peer repeated under one prefix", want: restores,
			mutate: func(ck *Checkpoint) {
				pr := routesOf(ck, pc)
				dup := pr.Routes[0]
				dup.Attrs = otherAttrs
				pr.Routes = append(pr.Routes, dup)
			},
			check: func(t *testing.T, e *Engine) {
				if n := e.Prefix(pc).Routes; n != 1 {
					t.Fatalf("%d routes for the repeated peer, want 1 node", n)
				}
				if got := routesOf(e.Checkpoint(), pc).Routes; len(got) != 1 || !bytes.Equal(got[0].Attrs, otherAttrs) {
					t.Fatalf("repeated peer restored as %+v, want the last entry's attrs", got)
				}
			}},
	}
	for _, row := range rows {
		ck := tinyCheckpoint(t)
		if row.mutate != nil {
			row.mutate(ck)
		}
		bin, err := AppendCheckpointBinary(nil, ck)
		if err != nil {
			t.Fatal(err)
		}
		inputs := map[string][]byte{}
		if row.mutate != nil || row.editBin != nil {
			inputs["binary"] = bin
		}
		if row.fixture != "" {
			inputs["binary"] = bytes.Clone(frozen(t, row.fixture))
		}
		if row.editBin != nil {
			inputs["binary"] = row.editBin(inputs["binary"])
		}
		if row.editSnap1 != nil {
			inputs["binary-snap1"] = row.editSnap1(bytes.Clone(frozen(t, frozenBinaryV2)))
		}
		for format, data := range inputs {
			t.Run(row.name+"/"+format, func(t *testing.T) {
				before := runtime.NumGoroutine()
				defer func() {
					// Close returns once every shard worker has called
					// wg.Done, which is a moment before the scheduler
					// retires its goroutine: give that a deadline.
					deadline := time.Now().Add(2 * time.Second)
					for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
						time.Sleep(time.Millisecond)
					}
					if after := runtime.NumGoroutine(); after > before {
						t.Errorf("%d goroutines before, %d after", before, after)
					}
				}()
				decoded, err := DecodeCheckpointBinary(data)
				if err != nil {
					if row.want != failsDecode {
						t.Fatalf("decode failed: %v", err)
					}
					t.Logf("decode: %v", err)
					return
				}
				if row.want == failsDecode {
					t.Fatal("decode accepted the image")
				}
				e, err := NewFromCheckpoint(Config{Shards: 2}, decoded)
				if err != nil {
					if row.want != failsRestore {
						t.Fatalf("restore failed: %v", err)
					}
					t.Logf("restore: %v", err)
					return
				}
				defer e.Close()
				if row.want == failsRestore {
					t.Fatal("restore accepted the image")
				}
				row.check(t, e)
			})
		}
	}
}
