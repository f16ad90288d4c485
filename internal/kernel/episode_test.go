package kernel_test

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"moas/internal/bgp"
	"moas/internal/core"
	"moas/internal/kernel"
	"moas/internal/ptable"
)

// applyEpisodes applies o by id, as the streaming shard does, and returns
// the events it emitted with the episode record Episode derives from each.
// The records alias the events' origin sets, as the shard's do.
func applyEpisodes(k *kernel.Kernel, o kernel.Obs) ([]kernel.Event, []core.Episode) {
	id := k.Acquire(o.Prefix, uint32(ptable.Hash(o.Prefix)))
	evs := slices.Clone(k.ApplyAt(id, o))
	var eps []core.Episode
	for i := range evs {
		eps = append(eps, k.Episode(id, &evs[i]))
	}
	return evs, eps
}

// ownEpisode is a deep copy of ep.
func ownEpisode(ep core.Episode) core.Episode {
	ep.Origins = slices.Clone(ep.Origins)
	return ep
}

// TestOnEpisodeLifecycle pins the episode derivation across a full
// lifecycle: every emitted event restates the open activation except
// the end, which closes it with the pre-transition set over
// [start, endDay-1], clamped for same-day start+end.
func TestOnEpisodeLifecycle(t *testing.T) {
	k := kernel.New(kernel.Options{})
	var eps []core.Episode
	for _, o := range []kernel.Obs{
		{Day: 1, Prefix: p1, Origins: []bgp.ASN{701}}, // no lifecycle, no episode
		{Day: 3, Prefix: p1, Origins: []bgp.ASN{701, 7018}, Class: core.ClassDistinctPaths},
		{Day: 5, Prefix: p1, Origins: []bgp.ASN{701, 7018, 8584}, Class: core.ClassDistinctPaths},
		{Day: 6, Prefix: p1, Origins: []bgp.ASN{701, 7018, 8584}, Class: core.ClassSplitView},
		{Day: 9, Prefix: p1, Origins: []bgp.ASN{701}},
		// Same-day start and end: the closed episode still spans its day.
		{Day: 10, Prefix: p1, Origins: []bgp.ASN{1, 2}, Class: core.ClassOrigTranAS},
		{Day: 10, Prefix: p1},
	} {
		_, got := applyEpisodes(k, o)
		eps = append(eps, got...)
	}

	want := []core.Episode{
		{Prefix: p1, Origins: []bgp.ASN{701, 7018}, Class: core.ClassDistinctPaths, Seq: 1, Start: 3, End: 3, Open: true},
		{Prefix: p1, Origins: []bgp.ASN{701, 7018, 8584}, Class: core.ClassDistinctPaths, Seq: 2, Start: 3, End: 5, Open: true},
		{Prefix: p1, Origins: []bgp.ASN{701, 7018, 8584}, Class: core.ClassSplitView, Seq: 3, Start: 3, End: 6, Open: true},
		{Prefix: p1, Origins: []bgp.ASN{701, 7018, 8584}, Class: core.ClassSplitView, Seq: 4, Start: 3, End: 8, Open: false},
		{Prefix: p1, Origins: []bgp.ASN{1, 2}, Class: core.ClassOrigTranAS, Seq: 5, Start: 10, End: 10, Open: true},
		{Prefix: p1, Origins: []bgp.ASN{1, 2}, Class: core.ClassOrigTranAS, Seq: 6, Start: 10, End: 10, Open: false},
	}
	if !reflect.DeepEqual(eps, want) {
		t.Fatalf("episodes:\n got %+v\nwant %+v", eps, want)
	}
}

// TestOnEpisodeSeqsMatchEvents: every emitted lifecycle event derives
// exactly one episode record, carrying that event's Seq.
func TestOnEpisodeSeqsMatchEvents(t *testing.T) {
	k := kernel.New(kernel.Options{})
	all, _ := script()
	var log []kernel.Event
	var eps []core.Episode
	for _, s := range all {
		if s.closeDay >= 0 {
			k.CloseDay(s.closeDay)
			continue
		}
		evs, got := applyEpisodes(k, s.obs)
		log, eps = append(log, evs...), append(eps, got...)
	}

	if len(log) == 0 || len(eps) != len(log) {
		t.Fatalf("%d episodes for %d events", len(eps), len(log))
	}
	for i, ep := range eps {
		ev := log[i]
		if ep.Prefix != ev.Prefix || ep.Seq != ev.Seq {
			t.Fatalf("episode %d (%s seq %d) does not match event (%s seq %d)",
				i, ep.Prefix, ep.Seq, ev.Prefix, ev.Seq)
		}
		if ep.Open != (ev.Type != kernel.EventConflictEnd) {
			t.Fatalf("episode %d open=%v for event type %v", i, ep.Open, ev.Type)
		}
	}
}

// TestEpisodeRecordsStayPut: a derived record aliases its event's origin
// sets instead of copying them, which holds only if the kernel never
// writes an emitted set again. Random flaps — through a snapshot restore,
// whose origin sets the kernel owns outright — derive records under a few
// seeds; after 1 000 further observations each record still equals the
// deep copy taken when it was derived.
func TestEpisodeRecordsStayPut(t *testing.T) {
	prefixes := []bgp.Prefix{
		bgp.MustParsePrefix("10.0.0.0/8"),
		bgp.MustParsePrefix("192.0.2.0/24"),
		bgp.MustParsePrefix("2001:db8::/32"),
	}
	for _, seed := range []int64{1, 2, 257} {
		rng := rand.New(rand.NewSource(seed))
		observe := func(k *kernel.Kernel, step int) []core.Episode {
			o := kernel.Obs{Day: step / 7, Prefix: prefixes[rng.Intn(len(prefixes))]}
			for a := bgp.ASN(64500); a < 64504; a++ {
				if rng.Intn(2) == 0 {
					o.Origins = append(o.Origins, a)
				}
			}
			o.Class = core.Class(1 + rng.Intn(core.NumClasses-1))
			_, eps := applyEpisodes(k, o)
			return eps
		}

		opts := kernel.Options{}
		k := kernel.New(opts)
		var derived, copies []core.Episode
		for step := 0; step < 600; step++ {
			if step == 300 {
				restored := kernel.New(opts)
				if err := restored.Restore(k.Snapshot()); err != nil {
					t.Fatalf("seed %d: restore: %v", seed, err)
				}
				k = restored
			}
			for _, ep := range observe(k, step) {
				derived, copies = append(derived, ep), append(copies, ownEpisode(ep))
			}
		}
		if len(derived) < 100 {
			t.Fatalf("seed %d: only %d records derived", seed, len(derived))
		}
		for step := 600; step < 1600; step++ {
			observe(k, step)
		}
		for i := range derived {
			if !reflect.DeepEqual(derived[i], copies[i]) {
				t.Fatalf("seed %d: record %d changed after derivation: %+v, was %+v", seed, i, derived[i], copies[i])
			}
		}
	}
}
