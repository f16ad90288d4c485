package kernel_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"moas/internal/bgp"
	"moas/internal/core"
	"moas/internal/kernel"
)

// own returns ev with origin sets of its own, empty ones as nil — the
// form a decoded event takes — so a model can keep what Apply returned.
func own(ev kernel.Event) kernel.Event {
	clone := func(s []bgp.ASN) []bgp.ASN {
		if len(s) == 0 {
			return nil
		}
		return slices.Clone(s)
	}
	ev.Origins, ev.PrevOrigins = clone(ev.Origins), clone(ev.PrevOrigins)
	return ev
}

// lastN is the model of a capped history: the most recent limit events
// (all of them when limit is zero), nil when there are none.
func lastN(evs []kernel.Event, limit int) []kernel.Event {
	if limit > 0 && len(evs) > limit {
		evs = evs[len(evs)-limit:]
	}
	if len(evs) == 0 {
		return nil
	}
	return evs
}

// TestHistoryAgainstModel drives random observation scripts — starts,
// origin and class changes, ends, and one-origin churn between an end and
// the next start, so that a start's PrevOrigins is not the previous
// event's Origins — and holds every prefix's decoded history, after every
// step, to the plain model: the last HistoryCap of the events Apply
// returned. Mid-script the kernel is imaged and restored through both
// codecs, and into a smaller cap, and every copy must keep agreeing with
// the model to the end.
func TestHistoryAgainstModel(t *testing.T) {
	prefixes := []bgp.Prefix{
		bgp.MustParsePrefix("10.0.0.0/8"),
		bgp.MustParsePrefix("2001:db8::/32"),
		bgp.MustParsePrefix("0.0.0.0/0"),
	}
	type copyOf struct {
		name  string
		k     *kernel.Kernel
		limit int
	}
	for _, limit := range []int{0, 1, 2, 8, 256} {
		t.Run(fmt.Sprintf("cap=%d", limit), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(limit) + 11))
			model := make(map[bgp.Prefix][]kernel.Event)
			kernels := []copyOf{{"live", kernel.New(kernel.Options{HistoryCap: limit}), limit}}
			check := func(step int, p bgp.Prefix) {
				t.Helper()
				for _, c := range kernels {
					v, _ := c.k.State(p)
					if want := lastN(model[p], c.limit); !reflect.DeepEqual(v.History, want) {
						t.Fatalf("step %d, %s kernel, %v: history\n got %+v\nwant %+v", step, c.name, p, v.History, want)
					}
				}
			}
			// Long enough for the busiest prefix to outgrow the cap.
			steps := 600 + 6*limit
			for step := 0; step < steps; step++ {
				// Favor one prefix so that it outgrows the largest cap.
				p := prefixes[max(rng.Intn(8)-5, 0)]
				var origins []bgp.ASN
				for a := bgp.ASN(64500); a < 64504; a++ { // ascending by construction
					if rng.Intn(5) < 2 {
						origins = append(origins, a)
					}
				}
				o := kernel.Obs{Day: step / 7, Prefix: p, Origins: origins, Class: core.Class(1 + rng.Intn(core.NumClasses-1))}
				var emitted []kernel.Event
				for i, c := range kernels {
					var evs []kernel.Event
					for _, ev := range c.k.Apply(o) {
						evs = append(evs, own(ev))
					}
					if i == 0 {
						emitted = evs
					} else if !reflect.DeepEqual(evs, emitted) {
						t.Fatalf("step %d: %s kernel emitted %+v, live %+v", step, c.name, evs, emitted)
					}
				}
				model[p] = append(model[p], emitted...)
				check(step, p)

				if step != steps/2 {
					continue
				}
				snap := kernels[0].k.Snapshot()
				fromBinary, err := kernel.DecodeSnapshotBinary(kernel.AppendSnapshotBinary(nil, snap))
				if err != nil {
					t.Fatal(err)
				}
				smaller := map[int]int{0: 3, 1: 1, 2: 1, 8: 3, 256: 5}[limit]
				for _, c := range []struct {
					name  string
					snap  *kernel.Snapshot
					limit int
				}{{"binary", fromBinary, limit}, {"smaller-cap", fromBinary, smaller}} {
					k := kernel.New(kernel.Options{HistoryCap: c.limit})
					if err := k.Restore(c.snap); err != nil {
						t.Fatalf("restore %s: %v", c.name, err)
					}
					kernels = append(kernels, copyOf{c.name, k, c.limit})
				}
				for _, p := range prefixes {
					check(step, p)
				}
			}
			if n := len(model[prefixes[0]]); n <= limit {
				t.Fatalf("script gave the busiest prefix %d events: the cap was never reached", n)
			}
			// The byte count is kept as events come and go; recounting from
			// an image of the same kernel must agree.
			for _, c := range kernels {
				recount := kernel.New(kernel.Options{HistoryCap: c.limit})
				if err := recount.Restore(c.k.Snapshot()); err != nil {
					t.Fatal(err)
				}
				if got, want := c.k.HistoryBytes(), recount.HistoryBytes(); got != want || got == 0 {
					t.Fatalf("%s kernel counts %d history bytes, its image holds %d", c.name, got, want)
				}
			}
		})
	}
}

// overlong re-spells the one-byte varint b in two bytes, which decodes
// to the same value and which no encoder here writes.
func overlong(b byte) []byte { return []byte{b | 0x80, 0x00} }

// busiest returns the index of the image's prefix with the longest
// history, and that history's events.
func busiest(t testing.TB, s *kernel.Snapshot) (int, []kernel.Event) {
	t.Helper()
	at := 0
	for i := range s.Prefixes {
		if s.Prefixes[i].History.Len() > s.Prefixes[at].History.Len() {
			at = i
		}
	}
	evs, err := s.Prefixes[at].HistoryEvents()
	if err != nil || len(evs) < 2 {
		t.Fatalf("fixture's longest history: %d events, %v", len(evs), err)
	}
	return at, evs
}

// TestRestoreCanonicalizesHistory: an image may spell a history's
// varints long, which no encoder here does — in the compact bytes of a
// current image or the full events of a version-1 one — and it still
// holds the history it spells. Restore keeps the canonical compact
// bytes: the re-snapshot is exactly the kernel's own.
func TestRestoreCanonicalizesHistory(t *testing.T) {
	base := midRunSnapshot(t)
	at, evs := busiest(t, base)
	canonical := base.Prefixes[at].History
	// Both forms open: count, type or header, day. Spell the count and
	// the day long.
	long := func(h []byte) []byte { return slices.Concat(overlong(h[0]), h[1:2], overlong(h[2]), h[3:]) }

	asBuilt := *base
	asBuilt.Prefixes = slices.Clone(base.Prefixes)
	asBuilt.Prefixes[at].History = long(canonical)
	viaBinary, err := kernel.DecodeSnapshotBinary(kernel.AppendSnapshotBinary(nil, &asBuilt))
	if err != nil {
		t.Fatal(err)
	}
	v1 := kernel.SnapshotV1(base)
	v1.Prefixes[at].History = long(v1.Prefixes[at].History)
	viaV1, err := kernel.DecodeSnapshotBinary(kernel.AppendSnapshotBinaryOld(nil, v1, nil))
	if err != nil {
		t.Fatal(err)
	}
	for name, snap := range map[string]*kernel.Snapshot{"as built": &asBuilt, "binary": viaBinary, "version-1 binary": viaV1} {
		k := kernel.New(kernel.Options{})
		if err := k.Restore(snap); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := k.Snapshot().Prefixes[at].History; !bytes.Equal(got, canonical) {
			t.Errorf("%s: re-snapshot holds % x, want the canonical % x", name, got, canonical)
		}
		if v, _ := k.State(base.Prefixes[at].Prefix); !reflect.DeepEqual(v.History, evs) {
			t.Errorf("%s: restored history %+v, want %+v", name, v.History, evs)
		}
	}

	// What does not decode, or decodes and runs on, is refused.
	hostile := asBuilt.Prefixes[at].History
	for name, h := range map[string]kernel.History{
		"truncated":      hostile[:len(hostile)-1],
		"trailing bytes": append(slices.Clone(hostile), 0),
		"count past end": {200},
	} {
		asBuilt.Prefixes[at].History = h
		if err := kernel.New(kernel.Options{}).Restore(&asBuilt); err == nil {
			t.Errorf("restore accepted a history with %s", name)
		}
	}
}

// TestRestoreRejectsImpossibleHistory: a history no kernel could have
// retained — an event of no known type, an event naming another prefix,
// ordinals that skip or that do not end at the prefix's own — is refused
// by the reader of the one form that can spell it, version-1 binary. The
// compact forms can spell one impossible history alone, more events than
// the prefix has ordinals; the binary reader and Restore refuse that one. The unforged history passes every reader, so
// the forgery is what each refuses.
func TestRestoreRejectsImpossibleHistory(t *testing.T) {
	base := midRunSnapshot(t)
	at, evs := busiest(t, base)
	other := bgp.MustParsePrefix("198.51.100.0/24")
	v1 := kernel.SnapshotV1(base)
	restores := func(decode func() (*kernel.Snapshot, error)) bool {
		s, err := decode()
		if err != nil {
			return false
		}
		return kernel.New(kernel.Options{}).Restore(s) == nil
	}
	for name, forge := range map[string]func(evs []kernel.Event){
		"as written":              func([]kernel.Event) {},
		"type 0":                  func(evs []kernel.Event) { evs[0].Type = 0 },
		"type 5":                  func(evs []kernel.Event) { evs[len(evs)-1].Type = 5 },
		"event of another prefix": func(evs []kernel.Event) { evs[0].Prefix = other },
		"ordinals that skip":      func(evs []kernel.Event) { evs[0].Seq-- },
		"ordinals that end short": func(evs []kernel.Event) {
			for i := range evs {
				evs[i].Seq--
			}
		},
	} {
		forged := slices.Clone(evs)
		forge(forged)
		want := name == "as written"
		v1.Prefixes[at].History = kernel.FullHistory(forged)
		bin := kernel.AppendSnapshotBinaryOld(nil, v1, nil)
		if got := restores(func() (*kernel.Snapshot, error) { return kernel.DecodeSnapshotBinary(bin) }); got != want {
			t.Errorf("%s: version-1 binary restores: %v, want %v", name, got, want)
		}
	}

	short := *base
	short.Prefixes = slices.Clone(base.Prefixes)
	short.Prefixes[at].Seq = uint64(len(evs) - 1)
	if err := kernel.New(kernel.Options{}).Restore(&short); err == nil {
		t.Error("restore accepted more history events than ordinals")
	}
	if _, err := kernel.DecodeSnapshotBinary(kernel.AppendSnapshotBinary(nil, &short)); err == nil {
		t.Error("binary reader accepted more history events than ordinals")
	}
}

// TestHistoryRoundTripProperty drives random flap scripts — starts, ends,
// origin and class changes on a few prefixes of both families — into
// kernels at caps that evict on nearly every event and at caps that
// never do, and holds every prefix's history to what the kernel emitted
// (its log) through the whole chain of images a deployment meets: a
// version-1 image restored, imaged in the current version and restored
// again must give the same State, and each history of the last image
// decodes to the events in full.
func TestHistoryRoundTripProperty(t *testing.T) {
	prefixes := []bgp.Prefix{
		bgp.MustParsePrefix("10.0.0.0/8"),
		bgp.MustParsePrefix("192.0.2.0/24"),
		bgp.MustParsePrefix("2001:db8::/32"),
		bgp.MustParsePrefix("0.0.0.0/0"),
	}
	for _, limit := range []int{0, 1, 3, 256} {
		for trial := 0; trial < 20; trial++ {
			rng := rand.New(rand.NewSource(int64(1000*limit + trial)))
			opts := kernel.Options{HistoryCap: limit}
			k := kernel.New(opts)
			emitted := make(map[bgp.Prefix][]kernel.Event)
			steps := 50 + rng.Intn(400)
			for step := 0; step < steps; step++ {
				o := kernel.Obs{Day: step / 5, Prefix: prefixes[rng.Intn(len(prefixes))]}
				// Mostly the flap between a conflict and one origin, now
				// and then a third origin or a withdrawal.
				switch r := rng.Intn(10); {
				case r < 5:
					o.Origins = []bgp.ASN{64500, bgp.ASN(64501 + rng.Intn(2))}
				case r < 9:
					o.Origins = []bgp.ASN{64500}
				}
				o.Class = core.Class(1 + rng.Intn(core.NumClasses-1))
				for _, ev := range k.Apply(o) {
					emitted[ev.Prefix] = append(emitted[ev.Prefix], own(ev))
				}
			}

			chain := []*kernel.Kernel{k}
			for _, encode := range []func(*kernel.Snapshot) []byte{
				func(s *kernel.Snapshot) []byte { return kernel.AppendSnapshotBinaryV1(nil, s) },
				func(s *kernel.Snapshot) []byte { return kernel.AppendSnapshotBinary(nil, s) },
			} {
				s, err := kernel.DecodeSnapshotBinary(encode(chain[len(chain)-1].Snapshot()))
				if err != nil {
					t.Fatalf("cap %d trial %d: %v", limit, trial, err)
				}
				next := kernel.New(opts)
				if err := next.Restore(s); err != nil {
					t.Fatalf("cap %d trial %d: restore: %v", limit, trial, err)
				}
				chain = append(chain, next)
			}
			last := chain[len(chain)-1].Snapshot()
			for _, p := range prefixes {
				want := lastN(emitted[p], limit)
				for i, c := range chain {
					if v, _ := c.State(p); !reflect.DeepEqual(v.History, want) {
						t.Fatalf("cap %d trial %d, kernel %d of the chain, %v: history\n got %+v\nwant %+v", limit, trial, i, p, v.History, want)
					}
				}
				if v, w := mustState(t, chain[0], p), mustState(t, chain[len(chain)-1], p); !reflect.DeepEqual(v, w) {
					t.Fatalf("cap %d trial %d, %v: state changed across the chain:\n got %+v\nwant %+v", limit, trial, p, w, v)
				}
			}
			for i := range last.Prefixes {
				ps := &last.Prefixes[i]
				got, err := ps.HistoryEvents()
				if err != nil {
					t.Fatal(err)
				}
				if want := lastN(emitted[ps.Prefix], limit); !reflect.DeepEqual(got, want) {
					t.Fatalf("cap %d trial %d, %v: imaged history\n got %+v\nwant %+v", limit, trial, ps.Prefix, got, want)
				}
			}
		}
	}
}

// mustState is p's State, which must exist, an empty origin set as nil
// (a withdrawal leaves the live kernel an empty set, a restore none).
func mustState(t testing.TB, k *kernel.Kernel, p bgp.Prefix) kernel.View {
	t.Helper()
	v, ok := k.State(p)
	if !ok {
		t.Fatalf("no state for %v", p)
	}
	if len(v.Origins) == 0 {
		v.Origins = nil
	}
	return v
}

// TestRestoreRejectsWideSpanDay: a day is a 32-bit number, so an image
// with an ended activation beyond that is refused.
func TestRestoreRejectsWideSpanDay(t *testing.T) {
	for _, sp := range []kernel.SpanSnap{{Start: 1 << 31, End: 1<<31 + 1}, {Start: 0, End: -1<<31 - 1}} {
		snap := midRunSnapshot(t)
		snap.ClosedSpans = append(snap.ClosedSpans, sp)
		if err := kernel.New(kernel.Options{}).Restore(snap); err == nil {
			t.Errorf("restore accepted closed span %+v", sp)
		}
	}
	snap := midRunSnapshot(t)
	// In front: an image lists its spans in (start, end) order.
	snap.ClosedSpans = append([]kernel.SpanSnap{{Start: -1 << 31, End: 1<<31 - 1}}, snap.ClosedSpans...)
	k := kernel.New(kernel.Options{})
	if err := k.Restore(snap); err != nil {
		t.Fatalf("restore refused the widest 32-bit span: %v", err)
	}
	if !reflect.DeepEqual(k.Snapshot().ClosedSpans, snap.ClosedSpans) {
		t.Fatal("closed spans changed across restore")
	}
}

// TestReadersDecodeOnlyWhatTheyRead pins who pays for history: a walk of
// the active set allocates nothing, one prefix's State costs three
// allocations at most however long its history, and imaging a kernel
// allocates by the table, not by the event.
func TestReadersDecodeOnlyWhatTheyRead(t *testing.T) {
	const prefixes = 512
	k := kernel.New(kernel.Options{HistoryCap: 256})
	for ev := 0; ev < 601; ev++ { // odd: every prefix ends up in conflict
		for i := 0; i < prefixes; i++ {
			flap(k, stormPrefix(i), ev)
		}
	}
	if k.ActiveCount() != prefixes {
		t.Fatalf("%d active conflicts, want %d", k.ActiveCount(), prefixes)
	}
	visited := 0
	if n := testing.AllocsPerRun(10, func() {
		k.WalkActive(func(_ bgp.Prefix, v kernel.View) bool {
			if len(v.History) != 0 {
				t.Error("WalkActive decoded a history")
			}
			visited++
			return true
		})
	}); n != 0 || visited == 0 {
		t.Errorf("WalkActive: %v allocations over %d visits, want none", n, visited)
	}
	var v kernel.View
	if n := testing.AllocsPerRun(10, func() { v, _ = k.State(stormPrefix(7)) }); n > 3 || len(v.History) != 256 {
		t.Errorf("State: %v allocations for %d events, want <= 3 for 256", n, len(v.History))
	}
	if n := testing.AllocsPerRun(3, func() { snapshotSink = k.Snapshot() }); n > 32 {
		t.Errorf("Snapshot: %v allocations for %d prefixes x 256 events, want <= 32", n, prefixes)
	}
}

// TestHistoryBytesPerEvent holds the resident cost of a lifecycle event
// — what a long-running monitor accumulates — on the storm fixture: heap
// in use per retained event, everything the kernel keeps per prefix
// included, and the history bytes alone. As Event structs it was some
// 135 heap bytes; in the full encoding, which repeats the prefix and the
// ordinal in every event, 27 heap bytes and 19.5 history bytes; compact,
// about 14 and 11.5.
func TestHistoryBytesPerEvent(t *testing.T) {
	inuse := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapInuse
	}
	before := inuse()
	k := stormKernel(kernel.Options{HistoryCap: 256})
	after := inuse()
	events := k.EventCount()
	if events != stormPrefixes*stormEvents {
		t.Fatalf("%d events, want %d", events, stormPrefixes*stormEvents)
	}
	per := float64(after-before) / float64(events)
	history := float64(k.HistoryBytes()) / float64(events)
	t.Logf("%d events in %.1f MB: %.1f heap bytes per event (%.2f of them history bytes)",
		events, float64(after-before)/1e6, per, history)
	if per > 20 {
		t.Errorf("%.1f heap bytes per retained event, want <= 20", per)
	}
	if history > 12 {
		t.Errorf("%.2f history bytes per retained event, want <= 12", history)
	}
	runtime.KeepAlive(k)
}

// TestBytesPerConflictedPrefix holds what the kernel keeps per prefix
// ever in conflict — state, history, lifetime record, its share of the
// ended-activation counts — on the storm fixture with its days closed
// (each prefix ends up with a 59-day record and 59 ended activations).
// It measures about 1 750 bytes, most of it the 118 retained events; with
// those in the full encoding it was 3 342, and with a registry map
// beside the table and one list entry per ended activation 3 936.
func TestBytesPerConflictedPrefix(t *testing.T) {
	inuse := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapInuse
	}
	before := inuse()
	k := kernel.New(kernel.Options{HistoryCap: 256})
	for ev := 0; ev < stormEvents; ev++ {
		for i := 0; i < stormPrefixes; i++ {
			flap(k, stormPrefix(i), ev)
		}
		if ev%2 == 0 {
			k.CloseDay(ev / 2)
		}
	}
	after := inuse()
	if n := k.ConflictCount(); n != stormPrefixes {
		t.Fatalf("%d conflicted prefixes, want %d", n, stormPrefixes)
	}
	per := float64(after-before) / stormPrefixes
	t.Logf("%d conflicted prefixes in %.1f MB: %.0f heap bytes each", stormPrefixes, float64(after-before)/1e6, per)
	if per > 2200 {
		t.Errorf("%.0f heap bytes per conflicted prefix, want <= 2200", per)
	}
	runtime.KeepAlive(k)
}
