package kernel

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"moas/internal/bgp"
	"moas/internal/core"
	"moas/internal/ptable"
	"moas/internal/ptable/ptabletest"
)

// TestCompactStatePointerFree guards the layout the heap numbers rest
// on: the per-prefix record the table stores inline — compact state and
// the holder's route-list head; the flags ride in the table's mark —
// holds nothing the garbage collector would trace, in eight bytes.
func TestCompactStatePointerFree(t *testing.T) {
	typ := reflect.TypeOf(rec{})
	if !ptabletest.PointerFree(typ) {
		t.Errorf("%s contains pointers", typ)
	}
	if typ.Size() > 8 {
		t.Errorf("%s is %d bytes, want <= 8", typ, typ.Size())
	}
}

// TestLifecycleStatePointerFree guards the layout the storm-shaped heap
// numbers rest on: what the kernel keeps per distinct ended activation is
// bytes the collector never scans — the closed-span counts hold no
// pointers — and the record of a prefix with a lifecycle stays within 48
// bytes.
func TestLifecycleStatePointerFree(t *testing.T) {
	if typ := reflect.TypeOf(SpanSnap{}); !ptabletest.PointerFree(typ) {
		t.Errorf("%s, the key ended activations are counted under, contains pointers", typ)
	}
	if n := reflect.TypeOf(ext{}).Size(); n > 48 {
		t.Errorf("ext is %d bytes, want <= 48", n)
	}
}

// TestIDLifetime walks one id through the contract between the kernel
// and a holder of its ids (the streaming shard): an id survives for as
// long as the holder keeps routes under it or the kernel keeps state
// under it, is recycled — with clean state — the moment neither does,
// and is never recycled once the prefix has a lifecycle.
func TestIDLifetime(t *testing.T) {
	k := New(Options{})
	p := bgp.MustParsePrefix("10.1.0.0/16")
	q := bgp.MustParsePrefix("2001:db8::/32")
	hp, hq := uint32(ptable.Hash(p)), uint32(ptable.Hash(q))

	id := k.Acquire(p, hp)
	if again := k.Acquire(p, hp); again != id {
		t.Fatalf("second Acquire returned %d, want %d", again, id)
	}
	if *k.Head(id) != 0 {
		t.Fatal("a fresh id has a nonzero head")
	}
	// Held without an origin (a route ending in an AS_SET): id stays,
	// kernel reports no state.
	*k.Head(id) = 1
	k.ApplyAt(id, Obs{Day: 1, Prefix: p})
	if _, ok := k.State(p); ok {
		t.Fatal("originless held id reports state")
	}
	if got, ok := k.Lookup(p, hp); !ok || got != id {
		t.Fatalf("held id lost: %d, %v", got, ok)
	}
	k.ApplyAt(id, Obs{Day: 1, Prefix: p, Origins: []bgp.ASN{701}})
	if v, ok := k.State(p); !ok || len(v.Origins) != 1 || v.Origins[0] != 701 || v.Seq != 0 {
		t.Fatalf("single-origin state = %+v, %v", v, ok)
	}
	// Fully withdrawn, no lifecycle: recycled.
	*k.Head(id) = 0
	k.ApplyAt(id, Obs{Day: 2, Prefix: p})
	if _, ok := k.Lookup(p, hp); ok {
		t.Fatal("id survived its last route and origin")
	}
	// The next prefix takes the recycled id and must not see p's state.
	if got := k.Acquire(q, hq); got != id {
		t.Fatalf("Acquire after recycle returned %d, want the recycled %d", got, id)
	}
	if _, ok := k.State(q); ok || *k.Head(id) != 0 {
		t.Fatal("recycled id leaked its previous state")
	}
	if k.ArenaStates() != 1 {
		t.Fatalf("arena holds %d entries for one live prefix", k.ArenaStates())
	}

	// A lifecycle pins the id for good, held or not.
	*k.Head(id) = 1
	k.ApplyAt(id, Obs{Day: 3, Prefix: q, Origins: []bgp.ASN{701, 3356}, Class: core.ClassDistinctPaths})
	*k.Head(id) = 0
	k.ApplyAt(id, Obs{Day: 4, Prefix: q})
	if got, ok := k.Lookup(q, hq); !ok || got != id {
		t.Fatal("id with a lifecycle was recycled")
	}
	if v, _ := k.State(q); v.Seq != 2 || v.Active {
		t.Fatalf("lifecycle state = %+v", v)
	}
	if got := k.Acquire(p, hp); got == id {
		t.Fatal("a live id was handed out twice")
	}
}

// TestApplyAgainstMapReference drives random observation sequences —
// appear, change origin, conflict, dissolve, vanish, reappear — through
// Apply and checks every prefix's state against a map-based reference
// that applies the old "delete when empty and lifecycle-free" rule.
func TestApplyAgainstMapReference(t *testing.T) {
	type refState struct {
		origins []bgp.ASN
		seq     uint64
	}
	rng := rand.New(rand.NewSource(3))
	k := New(Options{})
	ref := make(map[bgp.Prefix]*refState)
	prefixes := make([]bgp.Prefix, 300)
	for i := range prefixes {
		if i%3 == 0 {
			var a [16]byte
			a[0], a[1], a[7] = 0x20, 0x01, byte(i)
			prefixes[i] = bgp.PrefixFrom16(a, 64)
		} else {
			prefixes[i] = bgp.PrefixFromUint32(uint32(i)<<12, 20)
		}
	}
	for step := 0; step < 30000; step++ {
		p := prefixes[rng.Intn(len(prefixes))]
		var origins []bgp.ASN
		for a := bgp.ASN(100); a < 103; a++ { // ascending by construction
			if rng.Intn(3) == 0 {
				origins = append(origins, a)
			}
		}
		evs := k.Apply(Obs{Day: step, Prefix: p, Origins: origins, Class: core.ClassDistinctPaths})
		st := ref[p]
		if st == nil {
			st = &refState{}
		}
		was, now := len(st.origins) >= 2, len(origins) >= 2
		wantEvent := was != now || (was && now && !reflect.DeepEqual(st.origins, origins))
		if (len(evs) == 1) != wantEvent {
			t.Fatalf("step %d %s: %v -> %v emitted %d events, want event=%v", step, p, st.origins, origins, len(evs), wantEvent)
		}
		if wantEvent {
			st.seq++
			if evs[0].Seq != st.seq {
				t.Fatalf("step %d %s: seq %d, want %d", step, p, evs[0].Seq, st.seq)
			}
		}
		st.origins = origins
		if len(origins) == 0 && st.seq == 0 {
			delete(ref, p)
		} else {
			ref[p] = st
		}
	}
	active := 0
	for _, p := range prefixes {
		v, ok := k.State(p)
		st, want := ref[p]
		if ok != want {
			t.Fatalf("%s: tracked=%v, want %v", p, ok, want)
		}
		if !ok {
			continue
		}
		if len(v.Origins) != len(st.origins) || (len(v.Origins) > 0 && !reflect.DeepEqual(v.Origins, st.origins)) || v.Seq != st.seq {
			t.Fatalf("%s: state %v seq %d, want %v seq %d", p, v.Origins, v.Seq, st.origins, st.seq)
		}
		if v.Active != (len(st.origins) >= 2) {
			t.Fatalf("%s: active=%v with origins %v", p, v.Active, st.origins)
		}
		if v.Active {
			active++
		}
	}
	if k.ActiveCount() != active {
		t.Fatalf("ActiveCount %d, want %d", k.ActiveCount(), active)
	}
	if k.ArenaStates() > len(prefixes) {
		t.Fatalf("arena carved %d entries for %d prefixes", k.ArenaStates(), len(prefixes))
	}
}

// TestRegistryAgainstPlainRegistry drives random Apply/CloseDay scripts —
// days closed in order, repeated and out of order, conflicts that start
// and end between two closes (a lifecycle with no lifetime record), and
// a mid-script Snapshot restored across 1 and 3 partitions — and requires
// the records the kernels keep under their prefix tables to render the
// registry a plain core.Registry builds from the same day closes.
func TestRegistryAgainstPlainRegistry(t *testing.T) {
	prefixes := make([]bgp.Prefix, 120)
	for i := range prefixes {
		if i%4 == 0 {
			var a [16]byte
			a[0], a[1], a[7] = 0x20, 0x01, byte(i)
			prefixes[i] = bgp.PrefixFrom16(a, 48)
		} else {
			prefixes[i] = bgp.PrefixFromUint32(uint32(i)<<12, 20)
		}
	}
	// brief only ever conflicts between two day closes.
	brief := bgp.MustParsePrefix("198.51.100.0/24")
	for _, parts := range []int{1, 3} {
		rng := rand.New(rand.NewSource(int64(parts)))
		ks := []*Kernel{New(Options{})}
		owner := func(p bgp.Prefix) *Kernel { return ks[ptable.Shard(ptable.Hash(p), len(ks))] }
		ref := core.NewRegistry()
		now := make(map[bgp.Prefix]Obs) // the reference's view of who is in conflict
		day := 0
		const steps = 20000
		for step := 0; step < steps; step++ {
			if step == steps/2 {
				snap := Merge([]*Snapshot{ks[0].Snapshot()})
				ks = make([]*Kernel, parts)
				for i := range ks {
					ks[i] = New(Options{})
					if err := ks[i].RestorePart(snap, i, parts); err != nil {
						t.Fatal(err)
					}
				}
			}
			if rng.Intn(40) == 0 {
				owner(brief).Apply(Obs{Day: day, Prefix: brief, Origins: []bgp.ASN{7, 8}, Class: core.ClassSplitView})
				owner(brief).Apply(Obs{Day: day, Prefix: brief, Origins: []bgp.ASN{7}})
			}
			if rng.Intn(25) == 0 {
				closing := day
				switch rng.Intn(6) {
				case 0: // the same day again
				case 1: // a day already behind
					closing = rng.Intn(day + 1)
				default:
					day++
					closing = day
				}
				for _, k := range ks {
					k.CloseDay(closing)
				}
				for p, o := range now {
					ref.Record(closing, p, o.Origins, o.Class)
				}
				continue
			}
			o := Obs{Day: day, Prefix: prefixes[rng.Intn(len(prefixes))], Class: core.Class(1 + rng.Intn(core.NumClasses-1))}
			for a := bgp.ASN(100); a < 104; a++ { // ascending by construction
				if rng.Intn(3) == 0 {
					o.Origins = append(o.Origins, a)
				}
			}
			owner(o.Prefix).Apply(o)
			if len(o.Origins) >= 2 {
				now[o.Prefix] = o
			} else {
				delete(now, o.Prefix)
			}
		}
		var got []*core.Conflict
		for _, k := range ks {
			got = append(got, k.Registry().Conflicts()...)
		}
		slices.SortFunc(got, func(a, b *core.Conflict) int { return a.Prefix.Compare(b.Prefix) })
		want := ref.Conflicts()
		if len(want) < len(prefixes)/2 {
			t.Fatalf("parts=%d: only %d conflicts recorded: the script proves nothing", parts, len(want))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("parts=%d: the kernels render %d records, the plain registry holds %d; or they differ", parts, len(got), len(want))
		}
		if v, ok := owner(brief).State(brief); !ok || v.Seq == 0 || v.Conflict != nil {
			t.Fatalf("parts=%d: %s, never in conflict at a day close: state %+v, %v; want a lifecycle and no record", parts, brief, v, ok)
		}
	}
}

// TestClosedSpansBoundedByDays: what ended activations leave behind is a
// count per distinct (start, end) pair — 64 prefixes flapping in step
// for 2000 days leave one entry per day, not one per prefix and day —
// while the image and the lifecycle still count every activation.
func TestClosedSpansBoundedByDays(t *testing.T) {
	const prefixes, days = 64, 2000
	k := New(Options{})
	for day := 0; day < days; day++ {
		for i := 0; i < prefixes; i++ {
			p := bgp.PrefixFromUint32(uint32(i)<<8, 24)
			k.Apply(Obs{Day: day, Prefix: p, Origins: []bgp.ASN{1, 2}, Class: core.ClassDistinctPaths})
			k.Apply(Obs{Day: day + i%2, Prefix: p, Origins: []bgp.ASN{1}})
		}
		k.CloseDay(day)
	}
	if len(k.closed) > 2*days {
		t.Fatalf("%d closed-span entries for %d distinct spans", len(k.closed), 2*days)
	}
	var d Durations
	k.AddDurations(&d, days-1)
	if st := d.Stats(); st.Spans != prefixes*days || st.Open != 0 {
		t.Fatalf("the lifecycle counts %d activations (%d open), want %d ended", st.Spans, st.Open, prefixes*days)
	}
	if n := len(k.Snapshot().ClosedSpans); n != prefixes*days {
		t.Fatalf("the image lists %d ended activations, want %d", n, prefixes*days)
	}
}
