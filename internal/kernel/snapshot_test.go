package kernel_test

import (
	"reflect"
	"testing"

	"moas/internal/bgp"
	"moas/internal/core"
	"moas/internal/kernel"
)

// script is a deterministic observation sequence with starts, origin and
// class churn, ends and a reused prefix, split at a mid-run point so
// tests can checkpoint between the halves.
type scriptedObs struct {
	obs      kernel.Obs
	closeDay int // when >= 0, close this day instead of applying obs
}

func script() (all []scriptedObs, splitAt int) {
	o := func(day int, p bgp.Prefix, origins []bgp.ASN, class core.Class) scriptedObs {
		return scriptedObs{obs: kernel.Obs{Day: day, Prefix: p, Origins: origins, Class: class}, closeDay: -1}
	}
	c := func(day int) scriptedObs { return scriptedObs{closeDay: day} }
	pa := bgp.MustParsePrefix("10.0.0.0/8")
	pb := bgp.MustParsePrefix("172.16.0.0/12")
	pc := bgp.MustParsePrefix("192.168.0.0/16")
	all = []scriptedObs{
		o(0, pa, []bgp.ASN{701, 7018}, core.ClassDistinctPaths),
		o(0, pb, []bgp.ASN{9, 11}, core.ClassSplitView),
		c(0),
		o(1, pb, []bgp.ASN{9, 11, 15}, core.ClassSplitView),
		o(1, pc, []bgp.ASN{42}, 0),
		c(1),
		c(2),
		o(3, pa, nil, 0), // pa dissolves
		// ---- split point: checkpoint lands here ----
		o(3, pc, []bgp.ASN{42, 43}, core.ClassOrigTranAS),
		c(3),
		o(4, pb, []bgp.ASN{9, 11, 15}, core.ClassRelated),       // class change
		o(5, pa, []bgp.ASN{701, 4, 8}, core.ClassDistinctPaths), // pa reactivates
		c(4),
		c(5),
	}
	return all, 8
}

// drive feeds part to k and returns the events it emitted, in order.
func drive(k *kernel.Kernel, part []scriptedObs) []kernel.Event {
	var log []kernel.Event
	for _, s := range part {
		if s.closeDay >= 0 {
			k.CloseDay(s.closeDay)
		} else {
			log = append(log, k.Apply(s.obs)...)
		}
	}
	return log
}

// lifecycleOf is k's activation-duration summary as of day now.
func lifecycleOf(k *kernel.Kernel, now int) kernel.LifecycleStats {
	var d kernel.Durations
	k.AddDurations(&d, now)
	return d.Stats()
}

// TestSnapshotRoundTrip: checkpoint a kernel mid-run, serialize through
// the binary codec, restore into a fresh kernel, finish the run on both — every
// observable (snapshot image, registry, lifecycle, actives) must be
// identical to the uninterrupted kernel's, and the events the first
// kernel returned up to the cut, followed by the restored kernel's, must
// be the uninterrupted kernel's events.
func TestSnapshotRoundTrip(t *testing.T) {
	all, splitAt := script()
	opts := kernel.Options{}

	uninterrupted := kernel.New(opts)
	wantLog := drive(uninterrupted, all)

	first := kernel.New(opts)
	firstLog := drive(first, all[:splitAt])
	snap, err := kernel.DecodeSnapshotBinary(kernel.AppendSnapshotBinary(nil, first.Snapshot()))
	if err != nil {
		t.Fatal(err)
	}
	restored := kernel.New(opts)
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	gotLog := append(firstLog, drive(restored, all[splitAt:])...)

	wantSnap, gotSnap := uninterrupted.Snapshot(), restored.Snapshot()
	if !reflect.DeepEqual(wantSnap, gotSnap) {
		t.Fatalf("final snapshots differ:\nwant %+v\n got %+v", wantSnap, gotSnap)
	}
	diffRegistries(t, uninterrupted.Registry(), restored.Registry())
	if w, g := lifecycleOf(uninterrupted, 100), lifecycleOf(restored, 100); w != g {
		t.Fatalf("lifecycles differ: %+v vs %+v", w, g)
	}
	if !reflect.DeepEqual(activeSet(uninterrupted), activeSet(restored)) {
		t.Fatal("active sets differ after restore")
	}
	if !reflect.DeepEqual(wantLog, gotLog) {
		t.Fatal("event logs differ after restore")
	}
	if uninterrupted.EventCount() != restored.EventCount() {
		t.Fatalf("event counts differ: %d vs %d", uninterrupted.EventCount(), restored.EventCount())
	}
}

// TestSnapshotVersioning: wrong versions and dirty kernels are rejected.
func TestSnapshotVersioning(t *testing.T) {
	k := kernel.New(kernel.Options{})
	snap := k.Snapshot()
	snap.Version = 99
	if err := kernel.New(kernel.Options{}).Restore(snap); err == nil {
		t.Fatal("restore accepted a version-99 snapshot")
	}

	all, splitAt := script()
	dirty := kernel.New(kernel.Options{})
	drive(dirty, all[:splitAt])
	if err := dirty.Restore(dirty.Snapshot()); err == nil {
		t.Fatal("restore into a non-empty kernel accepted")
	}
}
