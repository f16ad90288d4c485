package stream

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"moas/internal/bgp"
	"moas/internal/binenc"
	"moas/internal/binenc/binenctest"
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
// starts from the scripted checkpoint and damages it — as an image
// (mutate: its encoding then carries the damage) or as bytes, whichever
// can express it — and must end as its want says, at decode or at
// restore, without a panic and without leaking the shard goroutines
// NewFromCheckpoint starts before it can know the image is bad. An image
// in a retired form is refused with binenc.ErrRetired, and the error
// names the form's version and the last commit that reads it; damage is
// never called retired.
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
	setByte := func(at func(bin []byte) int, v byte) func([]byte) []byte {
		return func(bin []byte) []byte { bin[at(bin)] = v; return bin }
	}
	containerSlot := func([]byte) int { return len(checkpointMagic) }
	// editKernel rewrites the kernel frame, the second after the magic and
	// the container and struct versions.
	editKernel := func(edit func(snap []byte) []byte) func([]byte) []byte {
		return func(bin []byte) []byte {
			off := len(checkpointMagic) + 2
			r := binenc.NewReader(bin[off:])
			out := bytes.Clone(bin[:off])
			for i := 0; r.Len() > 0; i++ {
				fr := r.Frame()
				if p := fr.Bytes(fr.Len()); i == 1 {
					out = binenc.AppendFrame(out, edit(bytes.Clone(p)))
				} else {
					out = binenc.AppendFrame(out, p)
				}
			}
			return out
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
		failsRetired
		failsRestore
		restores
	)
	rows := []struct {
		name    string
		mutate  func(ck *Checkpoint)
		editBin func(bin []byte) []byte
		want    int
		// names, for a row that fails as retired, is what the error must
		// name: the form's version and the last commit that reads it.
		names []string
		check func(t *testing.T, e *Engine)
	}{
		{name: "container 1", want: failsRetired, editBin: setByte(containerSlot, 1),
			names: []string{"MCKP version 1 ", "a105d34"}},
		{name: "kernel snapshot 1", want: failsRetired, editBin: setByte(msnpVersionAt, 1),
			names: []string{"MSNP version 1 ", "a105d34"}},
		{name: "kernel snapshot 2", want: failsRetired, editBin: setByte(msnpVersionAt, 2),
			names: []string{"MSNP version 2 ", "a105d34"}},
		{name: "kernel snapshot 3", want: failsRetired, editBin: setByte(msnpVersionAt, 3),
			names: []string{"MSNP version 3 ", "a105d34"}},
		{name: "kernel snapshot 0", want: failsDecode, editBin: setByte(msnpVersionAt, 0)},
		{name: "kernel snapshot 5", want: failsDecode, editBin: setByte(msnpVersionAt, 5)},
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
		// A current kernel section carries no log and no histories; one
		// that does — an empty log frame after the spans, as versions 1
		// and 2 ended with, or an empty history closing the last prefix
		// entry, as versions 1-3 closed each — is refused.
		{name: "event log in a current kernel snapshot", want: failsDecode,
			editBin: editKernel(func(snap []byte) []byte { return binenc.AppendFrame(snap, []byte{0}) })},
		{name: "histories in a current kernel snapshot", want: failsDecode,
			editBin: editKernel(func(snap []byte) []byte {
				return binenctest.Padded(t, snap, len("MSNP")+1, "meta", "prefixes", "conflicts", "spans")[1].Data
			})},
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
		if row.editBin != nil {
			bin = row.editBin(bin)
		}
		t.Run(row.name+"/binary", func(t *testing.T) {
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
			decoded, err := DecodeCheckpointBinary(bin)
			if err != nil {
				if row.want != failsDecode && row.want != failsRetired {
					t.Fatalf("decode failed: %v", err)
				}
				if retired := errors.Is(err, binenc.ErrRetired); retired != (row.want == failsRetired) {
					t.Fatalf("decode: %v; retired: %v, want %v", err, retired, !retired)
				}
				for _, name := range row.names {
					if !strings.Contains(err.Error(), name) {
						t.Errorf("decode: %q does not name %q", err, name)
					}
				}
				t.Logf("decode: %v", err)
				return
			}
			if row.want == failsDecode || row.want == failsRetired {
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

// TestRestoreSizesPrefixIndex: a restore sizes each shard's prefix index
// once, before it inserts (kernel.RestorePart), and the index it ends
// with is no larger than the one the replay grew: every restored shard
// holds as many cells as the shard it was imaged from. The table mixes
// single-origin prefixes, conflicts, and prefixes whose routes carry no
// origin (an AS_SET at the end of the path), which the kernel image does
// not list and the route restore enters after the reservation.
func TestRestoreSizesPrefixIndex(t *testing.T) {
	built := New(Config{Shards: 2})
	defer built.Close()
	peers := []PeerKey{{IP: [16]byte{1}, AS: 64500}, {IP: [16]byte{2}, AS: 64501}}
	var blocks [2][16]*bgp.Attrs
	for v, pk := range peers {
		for i := range blocks[v] {
			blocks[v][i] = &bgp.Attrs{ASPath: bgp.Seq(pk.AS, bgp.ASN(100+i))}
		}
	}
	asSet := &bgp.Attrs{ASPath: bgp.Path{{Type: bgp.SegSequence, ASes: []bgp.ASN{64500}}, {Type: bgp.SegSet, ASes: []bgp.ASN{7, 8}}}}
	for i := range 20000 {
		p := bgp.PrefixFromUint32(10<<24|uint32(i)<<8, 24)
		for v, pk := range peers {
			a := blocks[v][i%16]
			switch {
			case i%40 == 0:
				a = asSet
			case i%100 == 1:
				a = blocks[v][(i+v)%16] // the two vantages see two origins
			}
			built.ApplyUpdate(0, pk, &bgp.Update{NLRI: []bgp.Prefix{p}, Attrs: a})
		}
	}
	built.CloseDay(0)
	built.Sync()
	restored, err := NewFromCheckpoint(Config{Shards: 2}, built.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if st := restored.Stats(); st.ActiveConflicts != 200 || st.KernelStates != 20000 {
		t.Fatalf("restored %d prefixes with %d conflicts, want 20000 with 200", st.KernelStates, st.ActiveConflicts)
	}
	for i, s := range built.shards {
		if got, want := restored.shards[i].k.Cells(), s.k.Cells(); got != want || want < 1<<14 {
			t.Errorf("shard %d: restored index of %d cells, the replay grew %d", i, got, want)
		}
	}
}
