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

// TestHistoryAgainstModel drives random observation scripts — starts,
// origin and class changes, ends, and one-origin churn between an end and
// the next start — into a kernel under each value of the deprecated
// HistoryCap, and holds every prefix's state, after every step, to the
// plain model of the events Apply returned: its ordinal is their count,
// and it is in conflict, with their last origin set and class, exactly
// when the last of them is not an end. Mid-script the kernel is imaged
// and restored through the binary codec, through a version-1 image that
// carries every event as the prefixes' histories, and into another cap;
// every copy must emit what the live kernel emits and keep agreeing with
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
			var log []kernel.Event
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
				log = append(log, emitted...)
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
					{"version-1", kernel.AppendSnapshotBinaryOld(nil, snap, 1, kernel.OldHistories(log, 1), log), limit},
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

// overlong re-spells the one-byte varint b in two bytes, which decodes
// to the same value and which no encoder here writes.
func overlong(b byte) []byte { return []byte{b | 0x80, 0x00} }

// busiest returns the prefix with the most events in log, and its events.
func busiest(t testing.TB, log []kernel.Event) (bgp.Prefix, []kernel.Event) {
	t.Helper()
	byPrefix := make(map[bgp.Prefix][]kernel.Event)
	var p bgp.Prefix
	for _, ev := range log {
		byPrefix[ev.Prefix] = append(byPrefix[ev.Prefix], ev)
		if len(byPrefix[ev.Prefix]) > len(byPrefix[p]) {
			p = ev.Prefix
		}
	}
	if len(byPrefix[p]) < 2 {
		t.Fatalf("fixture's longest history: %d events", len(byPrefix[p]))
	}
	return p, byPrefix[p]
}

// TestRestoreCanonicalizesHistory: an older image may spell a history's
// varints long, which no encoder here did — in the compact bytes of a
// version-2 or 3 image or the full events of a version-1 one — and it
// still holds the history it spells: the reader accepts it and drops it,
// so the image restores to the kernel whose re-encoding is the canonical
// current image. A history that does not decode, or decodes and runs on,
// is refused.
func TestRestoreCanonicalizesHistory(t *testing.T) {
	base, log := midRun(t)
	p, _ := busiest(t, log)
	canonical := kernel.AppendSnapshotBinary(nil, base)
	// Both forms open: count, type or header, day. Spell the count and
	// the day long.
	long := func(h []byte) []byte { return slices.Concat(overlong(h[0]), h[1:2], overlong(h[2]), h[3:]) }
	for version := 1; version < kernel.SnapshotVersion; version++ {
		histories := kernel.OldHistories(log, version)
		good := histories[p]
		histories[p] = long(good)
		s, err := kernel.DecodeSnapshotBinary(kernel.AppendSnapshotBinaryOld(nil, base, version, histories, log))
		if err != nil {
			t.Fatalf("version %d: %v", version, err)
		}
		k := kernel.New(kernel.Options{})
		if err := k.Restore(s); err != nil {
			t.Fatalf("version %d: %v", version, err)
		}
		if got := kernel.AppendSnapshotBinary(nil, k.Snapshot()); !bytes.Equal(got, canonical) {
			t.Errorf("version %d: re-encoding holds % x, want the canonical % x", version, got, canonical)
		}

		for name, h := range map[string][]byte{
			"truncated":      good[:len(good)-1],
			"trailing bytes": append(slices.Clone(good), 0),
			"count past end": {200},
		} {
			histories[p] = h
			if _, err := kernel.DecodeSnapshotBinary(kernel.AppendSnapshotBinaryOld(nil, base, version, histories, log)); err == nil {
				t.Errorf("version %d: reader accepted a history with %s", version, name)
			}
		}
	}
}

// TestRestoreRejectsImpossibleHistory: a history no kernel could have
// retained — an event of no known type, an event naming another prefix,
// ordinals that skip or that do not end at the prefix's own — is refused
// by the reader of the one form that can spell it, version-1 binary. The
// compact form of versions 2 and 3 can spell one impossible history
// alone, more events than the prefix has ordinals; their reader refuses
// that one. The unforged history passes every reader, so the forgery is
// what each refuses.
func TestRestoreRejectsImpossibleHistory(t *testing.T) {
	base, log := midRun(t)
	p, evs := busiest(t, log)
	other := bgp.MustParsePrefix("198.51.100.0/24")
	restores := func(img []byte) bool {
		s, err := kernel.DecodeSnapshotBinary(img)
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
		histories := kernel.OldHistories(log, 1)
		histories[p] = kernel.FullHistory(forged)
		if got, want := restores(kernel.AppendSnapshotBinaryOld(nil, base, 1, histories, log)), name == "as written"; got != want {
			t.Errorf("%s: version-1 binary restores: %v, want %v", name, got, want)
		}
	}

	short := *base
	short.Prefixes = slices.Clone(base.Prefixes)
	for i := range short.Prefixes {
		if short.Prefixes[i].Prefix == p {
			short.Prefixes[i].Seq = uint64(len(evs) - 1)
		}
	}
	for version := 2; version < kernel.SnapshotVersion; version++ {
		if restores(kernel.AppendSnapshotBinaryOld(nil, &short, version, kernel.OldHistories(log, version), log)) {
			t.Errorf("version-%d binary: reader accepted more history events than ordinals", version)
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
