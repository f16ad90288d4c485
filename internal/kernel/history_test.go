package kernel_test

import (
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

// TestHistoryAgainstModel drives random observation scripts — starts,
// origin and class changes, ends, and one-origin churn between an end and
// the next start — into a kernel under each value of the deprecated
// HistoryCap, and holds every prefix's state, after every step, to the
// plain model of the events Apply returned: its ordinal is their count,
// and it is in conflict, with their last origin set and class, exactly
// when the last of them is not an end. Mid-script the kernel is imaged
// and restored through the binary codec, and into another cap; every
// copy must emit what the live kernel emits and keep agreeing with
// the model to the end.
func TestHistoryAgainstModel(t *testing.T) {
	prefixes := []bgp.Prefix{
		bgp.MustParsePrefix("10.0.0.0/8"),
		bgp.MustParsePrefix("2001:db8::/32"),
		bgp.MustParsePrefix("0.0.0.0/0"),
	}
	type copyOf struct {
		name string
		k    *kernel.Kernel
	}
	for _, limit := range []int{0, 1, 2, 8, 256} {
		t.Run(fmt.Sprintf("cap=%d", limit), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(limit) + 11))
			model := make(map[bgp.Prefix][]kernel.Event)
			kernels := []copyOf{{"live", kernel.New(kernel.Options{HistoryCap: limit})}}
			check := func(step int, p bgp.Prefix) {
				t.Helper()
				evs := model[p]
				want := kernel.View{Seq: uint64(len(evs))}
				if n := len(evs); n > 0 && evs[n-1].Type != kernel.EventConflictEnd {
					want.Active, want.Origins, want.Class = true, evs[n-1].Origins, evs[n-1].Class
				}
				for _, c := range kernels {
					v, _ := c.k.State(p)
					got := kernel.View{Seq: v.Seq, Active: v.Active}
					if v.Active {
						got.Origins, got.Class = v.Origins, v.Class
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d, %s kernel, %v: state\n got %+v\nwant %+v", step, c.name, p, got, want)
					}
				}
			}
			steps := 600 + 6*limit
			for step := 0; step < steps; step++ {
				// Favor one prefix so that it flaps the most.
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
				other := map[int]int{0: 3, 1: 1, 2: 1, 8: 3, 256: 5}[limit]
				for _, c := range []struct {
					name  string
					img   []byte
					limit int
				}{
					{"binary", kernel.AppendSnapshotBinary(nil, snap), limit},
					{"other-cap", kernel.AppendSnapshotBinary(nil, snap), other},
				} {
					s, err := kernel.DecodeSnapshotBinary(c.img)
					if err != nil {
						t.Fatalf("decode %s: %v", c.name, err)
					}
					k := kernel.New(kernel.Options{HistoryCap: c.limit})
					if err := k.Restore(s); err != nil {
						t.Fatalf("restore %s: %v", c.name, err)
					}
					kernels = append(kernels, copyOf{c.name, k})
				}
				for _, p := range prefixes {
					check(step, p)
				}
			}
			if n := len(model[prefixes[0]]); n < 100 {
				t.Fatalf("script gave the busiest prefix %d events, want >= 100", n)
			}
		})
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

// TestReadersDecodeOnlyWhatTheyRead pins what reads cost on a kernel
// that has emitted many events: a walk of the active set and one
// prefix's State allocate nothing, and imaging a kernel allocates by the
// table, not by the event.
func TestReadersDecodeOnlyWhatTheyRead(t *testing.T) {
	const prefixes = 512
	k := kernel.New(kernel.Options{})
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
		k.WalkActive(func(bgp.Prefix, kernel.View) bool {
			visited++
			return true
		})
	}); n != 0 || visited == 0 {
		t.Errorf("WalkActive: %v allocations over %d visits, want none", n, visited)
	}
	var v kernel.View
	if n := testing.AllocsPerRun(10, func() { v, _ = k.State(stormPrefix(7)) }); n != 0 || v.Seq != 601 {
		t.Errorf("State: %v allocations for a prefix at ordinal %d, want none", n, v.Seq)
	}
	if n := testing.AllocsPerRun(3, func() { snapshotSink = k.Snapshot() }); n > 32 {
		t.Errorf("Snapshot: %v allocations for %d prefixes x 601 events, want <= 32", n, prefixes)
	}
}

// TestBytesPerConflictedPrefix holds what the kernel keeps per prefix
// ever in conflict — state, lifetime record, its share of the
// ended-activation counts — on the storm fixture with its days closed
// (each prefix ends up with a 59-day record and 59 ended activations
// over 118 events). It measures about 231 bytes (251 under the race
// detector), whatever the events; while the kernel kept each prefix's
// events as well it was about 1 750, with those in the full encoding
// 3 342, and with a registry map beside the table and one list entry per
// ended activation 3 936.
func TestBytesPerConflictedPrefix(t *testing.T) {
	inuse := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapInuse
	}
	before := inuse()
	k := kernel.New(kernel.Options{})
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
	if per > 320 {
		t.Errorf("%.0f heap bytes per conflicted prefix, want <= 320", per)
	}
	runtime.KeepAlive(k)
}
