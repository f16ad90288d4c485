package kernel_test

import (
	"bytes"
	"encoding/json"
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
				var js bytes.Buffer
				if err := json.NewEncoder(&js).Encode(snap); err != nil {
					t.Fatal(err)
				}
				fromJSON := new(kernel.Snapshot)
				if err := json.Unmarshal(js.Bytes(), fromJSON); err != nil {
					t.Fatal(err)
				}
				fromBinary, err := kernel.DecodeSnapshotBinary(kernel.AppendSnapshotBinary(nil, snap))
				if err != nil {
					t.Fatal(err)
				}
				smaller := map[int]int{0: 3, 1: 1, 2: 1, 8: 3, 256: 5}[limit]
				for _, c := range []struct {
					name  string
					snap  *kernel.Snapshot
					limit int
				}{{"json", fromJSON, limit}, {"binary", fromBinary, limit}, {"smaller-cap", fromBinary, smaller}} {
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

// TestRestoreCanonicalizesHistory: an image may hold history no kernel
// would have written — events naming another prefix, ordinals with gaps,
// varints spelled long — as long as it decodes and every prefix and class
// in it is valid. Restore keeps such a history event for event, but in
// the canonical bytes: the re-snapshot is what encoding the decoded
// events afresh yields, through either codec.
func TestRestoreCanonicalizesHistory(t *testing.T) {
	foreign := bgp.MustParsePrefix("198.51.100.0/24")
	evs := []kernel.Event{
		{Type: kernel.EventConflictStart, Day: 5, Seq: 7, Prefix: foreign, Origins: []bgp.ASN{1, 2}, Class: core.ClassSplitView},
		{Type: kernel.EventOriginChange, Day: 5, Seq: 3, Prefix: foreign, Origins: []bgp.ASN{1, 2, 4_200_000_000}, PrevOrigins: []bgp.ASN{1, 2},
			Class: core.ClassSplitView, PrevClass: core.ClassSplitView},
		{Type: kernel.EventConflictEnd, Day: 9, Seq: 90, Prefix: bgp.MustParsePrefix("2001:db8::/48"), PrevOrigins: []bgp.ASN{1, 2, 4_200_000_000},
			PrevClass: core.ClassSplitView},
	}
	canonical := historyOf(t, evs)
	// canonical opens: count, type, day. Spell the count and the day long.
	hostile := slices.Concat(overlong(canonical[0]), canonical[1:2], overlong(canonical[2]), canonical[3:])
	if got := kernel.History(hostile).Events(); !reflect.DeepEqual(got, evs) {
		t.Fatalf("hostile bytes decode to %+v, want %+v", got, evs)
	}

	base := midRunSnapshot(t)
	var at int
	for at = range base.Prefixes {
		if base.Prefixes[at].History.Len() > 0 {
			break
		}
	}
	base.Prefixes[at].History = hostile
	viaBinary, err := kernel.DecodeSnapshotBinary(kernel.AppendSnapshotBinary(nil, base))
	if err != nil {
		t.Fatal(err)
	}
	for name, snap := range map[string]*kernel.Snapshot{"as built": base, "binary": viaBinary} {
		k := kernel.New(kernel.Options{KeepLog: true})
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
	for name, h := range map[string]kernel.History{
		"truncated":      hostile[:len(hostile)-1],
		"trailing bytes": append(slices.Clone(hostile), 0),
		"count past end": {200},
	} {
		base.Prefixes[at].History = h
		if err := kernel.New(kernel.Options{}).Restore(base); err == nil {
			t.Errorf("restore accepted a history with %s", name)
		}
	}
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
// included. As Event structs it was some 135 bytes.
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
	t.Logf("%d events in %.1f MB: %.1f heap bytes per event (%.1f of them history bytes)",
		events, float64(after-before)/1e6, per, float64(k.HistoryBytes())/float64(events))
	if per > 40 {
		t.Errorf("%.1f heap bytes per retained event, want <= 40", per)
	}
	runtime.KeepAlive(k)
}

// TestBytesPerConflictedPrefix holds what the kernel keeps per prefix
// ever in conflict — state, history, lifetime record, its share of the
// ended-activation counts — on the storm fixture with its days closed
// (each prefix ends up with a 59-day record and 59 ended activations).
// It measures 3342 bytes, nearly all of it the 118 retained events; with
// a registry map beside the table and one list entry per ended
// activation it was 3936.
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
	if per > 3600 {
		t.Errorf("%.0f heap bytes per conflicted prefix, want <= 3600", per)
	}
	runtime.KeepAlive(k)
}
