package kernel_test

import (
	"bytes"
	"reflect"
	"testing"

	"moas/internal/bgp"
	"moas/internal/core"
	"moas/internal/kernel"
)

var (
	p1 = bgp.MustParsePrefix("10.0.0.0/8")
	p2 = bgp.MustParsePrefix("192.168.0.0/16")
)

func apply(t *testing.T, k *kernel.Kernel, day int, p bgp.Prefix, origins []bgp.ASN, class core.Class) []kernel.Event {
	t.Helper()
	evs := k.Apply(kernel.Obs{Day: day, Prefix: p, Origins: origins, Class: class})
	// The returned slice is reused by the next Apply; copy for assertions.
	return append([]kernel.Event(nil), evs...)
}

// TestApplyLifecycle drives one prefix through a full start → origin
// change → class change → end cycle and checks every emitted event and
// the derived records.
func TestApplyLifecycle(t *testing.T) {
	k := kernel.New(kernel.Options{})

	// Single origin: tracked, but no lifecycle.
	if evs := apply(t, k, 1, p1, []bgp.ASN{701}, 0); len(evs) != 0 {
		t.Fatalf("single-origin observation emitted %v", evs)
	}
	if k.ActiveCount() != 0 {
		t.Fatal("active conflict before a second origin appeared")
	}

	// Second origin: conflict starts.
	evs := apply(t, k, 3, p1, []bgp.ASN{701, 7018}, core.ClassDistinctPaths)
	if len(evs) != 1 || evs[0].Type != kernel.EventConflictStart {
		t.Fatalf("expected conflict-start, got %v", evs)
	}
	if got := evs[0].PrevOrigins; !reflect.DeepEqual(got, []bgp.ASN{701}) {
		t.Fatalf("start PrevOrigins = %v", got)
	}
	if evs[0].Seq != 1 {
		t.Fatalf("first event seq = %d", evs[0].Seq)
	}

	// Same observation again: no event (idempotent).
	if evs := apply(t, k, 4, p1, []bgp.ASN{701, 7018}, core.ClassDistinctPaths); len(evs) != 0 {
		t.Fatalf("repeat observation emitted %v", evs)
	}

	// Origin set changes while staying in conflict.
	evs = apply(t, k, 5, p1, []bgp.ASN{701, 7018, 8584}, core.ClassDistinctPaths)
	if len(evs) != 1 || evs[0].Type != kernel.EventOriginChange || evs[0].Seq != 2 {
		t.Fatalf("expected origin-change seq 2, got %v", evs)
	}

	// Class flips with the same origin set.
	evs = apply(t, k, 6, p1, []bgp.ASN{701, 7018, 8584}, core.ClassOrigTranAS)
	if len(evs) != 1 || evs[0].Type != kernel.EventClassChange {
		t.Fatalf("expected class-change, got %v", evs)
	}

	// Origins collapse: conflict ends.
	evs = apply(t, k, 9, p1, []bgp.ASN{701}, 0)
	if len(evs) != 1 || evs[0].Type != kernel.EventConflictEnd {
		t.Fatalf("expected conflict-end, got %v", evs)
	}
	if len(evs[0].Origins) != 0 {
		t.Fatalf("end event carries origins %v", evs[0].Origins)
	}
	if k.ActiveCount() != 0 {
		t.Fatal("still active after end")
	}

	if spans := k.Snapshot().ClosedSpans; !reflect.DeepEqual(spans, []kernel.SpanSnap{{Start: 3, End: 9}}) {
		t.Fatalf("ended activations = %v, want one [3,9)", spans)
	}
	// The end event is the fourth the prefix emitted, and the last.
	if k.EventCount() != 4 || evs[0].Seq != 4 {
		t.Fatalf("event count %d, end event seq %d, want 4", k.EventCount(), evs[0].Seq)
	}
}

// TestCloseDayRecordsActives: CloseDay must feed the registry exactly the
// active set, accumulating the paper's day-granular durations.
func TestCloseDayRecordsActives(t *testing.T) {
	k := kernel.New(kernel.Options{})
	apply(t, k, 0, p1, []bgp.ASN{1, 2}, core.ClassDistinctPaths)
	apply(t, k, 0, p2, []bgp.ASN{3, 4}, core.ClassSplitView)
	k.CloseDay(0)
	apply(t, k, 1, p2, nil, 0) // p2 dissolves before day 1 closes
	k.CloseDay(1)
	k.CloseDay(2) // quiet day: p1 still active

	c1, ok := k.Registry().Get(p1)
	if !ok || c1.DaysObserved != 3 || c1.FirstDay != 0 || c1.LastDay != 2 {
		t.Fatalf("p1 record = %+v", c1)
	}
	c2, ok := k.Registry().Get(p2)
	if !ok || c2.DaysObserved != 1 || c2.ClassDays[core.ClassSplitView] != 1 {
		t.Fatalf("p2 record = %+v", c2)
	}
	if k.Registry().OngoingAt(2) != 1 {
		t.Fatalf("ongoing at day 2 = %d", k.Registry().OngoingAt(2))
	}
}

// TestHistoryCap: the deprecated HistoryCap has no effect. A kernel
// under a cap of 2 emits the events one without a cap emits, counts them
// alike, and after the same flaps and day closes images to the same
// binary snapshot, byte for byte.
func TestHistoryCap(t *testing.T) {
	capped, plain := kernel.New(kernel.Options{HistoryCap: 2}), kernel.New(kernel.Options{})
	for i := 0; i < 5; i++ {
		day := 2 * i
		for _, o := range []kernel.Obs{
			{Day: day, Prefix: p1, Origins: []bgp.ASN{1, bgp.ASN(100 + i)}, Class: core.ClassDistinctPaths},
			{Day: day + 1, Prefix: p1, Origins: []bgp.ASN{1}},
		} {
			if got, want := capped.Apply(o), plain.Apply(o); len(got) != 1 || !reflect.DeepEqual(got, want) {
				t.Fatalf("day %d: capped kernel emitted %+v, uncapped %+v", o.Day, got, want)
			}
		}
		capped.CloseDay(day)
		plain.CloseDay(day)
	}
	if v, _ := capped.State(p1); v.Seq != 10 || capped.EventCount() != 10 {
		t.Fatalf("seq %d count %d, want 10", v.Seq, capped.EventCount())
	}
	got := kernel.AppendSnapshotBinary(nil, capped.Snapshot())
	if want := kernel.AppendSnapshotBinary(nil, plain.Snapshot()); !bytes.Equal(got, want) {
		t.Fatalf("capped kernel images to % x, uncapped to % x", got, want)
	}
}

// TestUntrackedAbsentObservation: observing an unknown prefix as absent
// must leave no state behind, and a withdrawn prefix with no lifecycle is
// forgotten entirely.
func TestUntrackedAbsentObservation(t *testing.T) {
	k := kernel.New(kernel.Options{})
	if evs := apply(t, k, 0, p1, nil, 0); len(evs) != 0 {
		t.Fatalf("absent observation of unknown prefix emitted %v", evs)
	}
	if _, ok := k.State(p1); ok {
		t.Fatal("state created for absent observation")
	}
	// Track with one origin, then withdraw: no lifecycle, so no state.
	apply(t, k, 0, p1, []bgp.ASN{42}, 0)
	apply(t, k, 1, p1, nil, 0)
	if _, ok := k.State(p1); ok {
		t.Fatal("state survives full withdrawal without lifecycle")
	}
}

// TestScratchAliasing: the kernel must copy committed origin sets, so a
// caller-reused scratch buffer cannot corrupt state or emitted events.
func TestScratchAliasing(t *testing.T) {
	k := kernel.New(kernel.Options{})
	scratch := make([]bgp.ASN, 0, 8)
	scratch = append(scratch, 1, 2)
	emitted := apply(t, k, 0, p1, scratch, core.ClassDistinctPaths)
	// Reuse the scratch for a different prefix.
	scratch = scratch[:0]
	scratch = append(scratch, 7, 9)
	apply(t, k, 0, p2, scratch, core.ClassSplitView)

	v, _ := k.State(p1)
	if !reflect.DeepEqual(v.Origins, []bgp.ASN{1, 2}) {
		t.Fatalf("p1 origins corrupted by scratch reuse: %v", v.Origins)
	}
	if ev := emitted[0]; !reflect.DeepEqual(ev.Origins, []bgp.ASN{1, 2}) {
		t.Fatalf("emitted event corrupted by scratch reuse: %v", ev.Origins)
	}
}
