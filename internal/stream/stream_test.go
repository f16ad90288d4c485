package stream

import (
	"bytes"
	"reflect"
	"slices"
	"sync"
	"testing"

	"moas/internal/bgp"
	"moas/internal/collector"
	"moas/internal/core"
	"moas/internal/driver"
	"moas/internal/kernel"
	"moas/internal/scenario"
)

// Shared fixtures: the SmallScale scenario (scenario.TestSpec is what the
// facade exports as moas.SmallScale), its full update archive, and the
// batch full-scan registry the stream must reproduce. Built once.
var (
	fixOnce    sync.Once
	fixSc      *scenario.Scenario
	fixArchive []byte
	fixWant    *core.Registry
	fixErr     error
)

func fixtures(t testing.TB) (*scenario.Scenario, []byte, *core.Registry) {
	t.Helper()
	fixOnce.Do(func() {
		sc, err := scenario.Build(scenario.TestSpec())
		if err != nil {
			fixErr = err
			return
		}
		var buf bytes.Buffer
		if err := collector.WriteUpdateArchive(&buf, sc); err != nil {
			fixErr = err
			return
		}
		res, err := driver.RunFullScanScenario(sc, driver.Config{})
		if err != nil {
			fixErr = err
			return
		}
		fixSc, fixArchive, fixWant = sc, buf.Bytes(), res.Registry
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixSc, fixArchive, fixWant
}

// replayAll runs a full archive replay through a fresh engine and closes it.
func replayAll(t testing.TB, cfg Config) *Engine {
	t.Helper()
	e, _ := replayEvents(t, cfg)
	return e
}

// replayEvents is replayAll that also returns the lifecycle events the
// engine published through OnEvent, in canonical order.
func replayEvents(t testing.TB, cfg Config) (*Engine, []Event) {
	t.Helper()
	sc, archive, _ := fixtures(t)
	var evs eventSink
	cfg.OnEvent = evs.add
	e := New(cfg)
	if err := e.Replay(bytes.NewReader(archive), NewCalendar(sc.ObservedDays, sc.DayStamp), nil); err != nil {
		t.Fatal(err)
	}
	e.Close()
	return e, evs.sorted()
}

// eventSink collects the events an engine publishes through
// Config.OnEvent, which the shard workers call concurrently.
type eventSink struct {
	mu  sync.Mutex
	evs []Event
}

func (s *eventSink) add(ev Event) {
	s.mu.Lock()
	s.evs = append(s.evs, ev)
	s.mu.Unlock()
}

func (s *eventSink) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.evs)
}

// sorted returns the events collected so far in kernel.SortEvents order.
func (s *eventSink) sorted() []Event {
	s.mu.Lock()
	evs := slices.Clone(s.evs)
	s.mu.Unlock()
	kernel.SortEvents(evs)
	return evs
}

// checkpointBytes returns the engine's binary checkpoint — the strictest
// equality two engines can be held to.
func checkpointBytes(t testing.TB, e *Engine) []byte {
	t.Helper()
	bin, err := AppendCheckpointBinary(nil, e.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

// diffRegistries asserts two registries are identical record for record.
func diffRegistries(t *testing.T, want, got *core.Registry) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("conflict counts differ: want %d, got %d", want.Len(), got.Len())
	}
	ws, gs := want.Conflicts(), got.Conflicts()
	for i := range ws {
		w, g := ws[i], gs[i]
		if w.Prefix != g.Prefix {
			t.Fatalf("conflict %d: prefix %s vs %s", i, w.Prefix, g.Prefix)
		}
		if w.FirstDay != g.FirstDay || w.LastDay != g.LastDay || w.DaysObserved != g.DaysObserved {
			t.Fatalf("%s: span/duration differ: want (%d,%d,%d), got (%d,%d,%d)",
				w.Prefix, w.FirstDay, w.LastDay, w.DaysObserved, g.FirstDay, g.LastDay, g.DaysObserved)
		}
		if !reflect.DeepEqual(w.OriginsEver, g.OriginsEver) {
			t.Fatalf("%s: origins differ: want %v, got %v", w.Prefix, w.OriginsEver, g.OriginsEver)
		}
		if w.ClassDays != g.ClassDays {
			t.Fatalf("%s: class days differ: want %v, got %v", w.Prefix, w.ClassDays, g.ClassDays)
		}
	}
}

// TestReplayMatchesFullScan is the subsystem's equivalence claim: replaying
// the SmallScale scenario's complete BGP4MP update stream through the
// sharded engine yields the identical conflict registry
// driver.RunFullScanScenario builds from daily table snapshots.
func TestReplayMatchesFullScan(t *testing.T) {
	_, _, want := fixtures(t)
	e := replayAll(t, Config{Shards: 4})
	diffRegistries(t, want, e.Registry())

	st := e.Stats()
	if st.TotalConflicts != want.Len() {
		t.Fatalf("Stats.TotalConflicts = %d, want %d", st.TotalConflicts, want.Len())
	}
	if st.ActiveConflicts == 0 {
		t.Fatal("no conflicts still active at end of replay (scenario has full-period conflicts)")
	}
}

// TestShardCountInvariance: the engine must be deterministic in its worker
// layout — the batch full scan's registry, the same lifecycle event
// sequence and a byte-identical binary checkpoint whether the prefix
// space runs on one shard or many, with any batch size.
func TestShardCountInvariance(t *testing.T) {
	_, _, want := fixtures(t)
	var baseEvents []Event
	var baseCk []byte
	for _, cfg := range []Config{
		{Shards: 1},
		{Shards: 3, BatchSize: 7},
		{Shards: 8, BatchSize: 1},
	} {
		e, events := replayEvents(t, cfg)
		diffRegistries(t, want, e.Registry())
		ck := checkpointBytes(t, e)
		if baseEvents == nil {
			baseEvents, baseCk = events, ck
			if len(baseEvents) == 0 {
				t.Fatal("replay emitted no lifecycle events")
			}
			continue
		}
		if len(events) != len(baseEvents) {
			t.Fatalf("shards=%d: %d events, want %d", cfg.Shards, len(events), len(baseEvents))
		}
		for i := range events {
			if !reflect.DeepEqual(events[i], baseEvents[i]) {
				t.Fatalf("shards=%d: event %d differs:\n got %+v\nwant %+v",
					cfg.Shards, i, events[i], baseEvents[i])
			}
		}
		if !bytes.Equal(ck, baseCk) {
			t.Fatalf("shards=%d: binary checkpoint differs (%d vs %d bytes)", cfg.Shards, len(ck), len(baseCk))
		}
	}
}

// TestLifecycleEventsWellFormed checks per-prefix event grammar: seqs are
// contiguous from 1, starts and ends alternate, and only active conflicts
// change origins or class.
func TestLifecycleEventsWellFormed(t *testing.T) {
	e, events := replayEvents(t, Config{Shards: 4})
	lastSeq := map[bgp.Prefix]uint64{}
	inConflict := map[bgp.Prefix]bool{}
	for _, ev := range events {
		if ev.Seq != lastSeq[ev.Prefix]+1 {
			t.Fatalf("%s: seq %d follows %d", ev.Prefix, ev.Seq, lastSeq[ev.Prefix])
		}
		lastSeq[ev.Prefix] = ev.Seq
		switch ev.Type {
		case EventConflictStart:
			if inConflict[ev.Prefix] {
				t.Fatalf("%s: start while active", ev.Prefix)
			}
			if len(ev.Origins) < 2 {
				t.Fatalf("%s: start with origins %v", ev.Prefix, ev.Origins)
			}
			inConflict[ev.Prefix] = true
		case EventConflictEnd:
			if !inConflict[ev.Prefix] {
				t.Fatalf("%s: end while inactive", ev.Prefix)
			}
			inConflict[ev.Prefix] = false
		case EventOriginChange, EventClassChange:
			if !inConflict[ev.Prefix] {
				t.Fatalf("%s: %s while inactive", ev.Prefix, ev.Type)
			}
		}
	}
	active := e.ActiveConflicts()
	stillActive := 0
	for _, v := range inConflict {
		if v {
			stillActive++
		}
	}
	if stillActive != len(active) {
		t.Fatalf("event log implies %d active conflicts, engine reports %d", stillActive, len(active))
	}
}

// TestConcurrentQueriesDuringReplay hammers every live query from several
// goroutines while the replay is in flight; run under -race it proves the
// stripe locking. The final registry must still match the batch scan.
func TestConcurrentQueriesDuringReplay(t *testing.T) {
	sc, archive, want := fixtures(t)
	e := New(Config{Shards: 4, BatchSize: 32})

	done := make(chan struct{})
	var wg sync.WaitGroup
	somePrefix := bgp.MustParsePrefix("10.0.0.0/8")
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				e.ActiveConflicts()
				e.Stats()
				e.Involvement(8584)
				e.Prefix(somePrefix)
				e.Registry()
			}
		}()
	}

	if err := e.Replay(bytes.NewReader(archive), NewCalendar(sc.ObservedDays, sc.DayStamp), nil); err != nil {
		t.Fatal(err)
	}
	e.Close()
	close(done)
	wg.Wait()

	diffRegistries(t, want, e.Registry())
}

// TestInvolvementSeesStorm: the scripted SmallScale storm (AS 8584) must be
// visible through the live involvement query after replay.
func TestInvolvementSeesStorm(t *testing.T) {
	e := replayAll(t, Config{Shards: 2})
	inv := e.Involvement(8584)
	if inv.Ever == 0 {
		t.Fatal("AS 8584 storm invisible in lifetime involvement")
	}
	st := e.Stats()
	if st.Lifecycle.Spans == 0 || st.Lifecycle.MaxDays == 0 {
		t.Fatalf("lifecycle stats empty: %+v", st.Lifecycle)
	}
}

// TestLifecycleOpenBeforeDayClose: Stats never reports a negative
// duration for an open activation no day close has seen — a live feed
// before its first UTC midnight (no close at all, the conflict on absolute
// day 20000) and a replay whose calendar skips from a close on day 5 to a
// conflict starting on day 9. Either lasts 0 days.
func TestLifecycleOpenBeforeDayClose(t *testing.T) {
	p := bgp.MustParsePrefix("10.0.0.0/8")
	for _, c := range []struct {
		name   string
		closes []int
		start  int
	}{
		{"live-before-first-midnight", nil, 20000},
		{"calendar-gap", []int{4, 5}, 9},
	} {
		e := New(Config{Shards: 2})
		for _, day := range c.closes {
			e.CloseDay(day)
		}
		for _, origin := range []bgp.ASN{70, 71} {
			peer := PeerKey{IP: [16]byte{3: byte(origin)}, AS: 65000 + origin}
			e.ApplyUpdate(c.start, peer, &bgp.Update{Attrs: &bgp.Attrs{ASPath: bgp.Seq(peer.AS, origin)}, NLRI: []bgp.Prefix{p}})
		}
		e.Sync()
		if st := e.Stats().Lifecycle; st != (kernel.LifecycleStats{Spans: 1, Open: 1}) {
			t.Errorf("%s: lifecycle %+v, want one open activation of 0 days", c.name, st)
		}
		e.Close()
	}
}

// TestHistoryLimitKeepsRegistry: the daemon configuration (bounded
// history) must not change the registry, span stats or event counts.
func TestHistoryLimitKeepsRegistry(t *testing.T) {
	full := replayAll(t, Config{Shards: 2})
	lean := replayAll(t, Config{Shards: 2, HistoryLimit: 4})
	diffRegistries(t, full.Registry(), lean.Registry())
	fs, ls := full.Stats(), lean.Stats()
	if fs.Events != ls.Events {
		t.Fatalf("event counts differ: %d vs %d", fs.Events, ls.Events)
	}
	if fs.Lifecycle != ls.Lifecycle {
		t.Fatalf("lifecycle stats differ:\n full %+v\n lean %+v", fs.Lifecycle, ls.Lifecycle)
	}
}
