package kernel_test

import (
	"reflect"
	"testing"

	"moas/internal/bgp"
	"moas/internal/core"
	"moas/internal/kernel"
)

// collectEpisodes returns a kernel whose OnEpisode hook appends deep
// copies (Origins are borrowed during the callback) to the returned
// slice.
func collectEpisodes(opts kernel.Options) (*kernel.Kernel, *[]core.Episode) {
	eps := &[]core.Episode{}
	opts.OnEpisode = func(ep core.Episode) {
		ep.Origins = append([]bgp.ASN(nil), ep.Origins...)
		*eps = append(*eps, ep)
	}
	return kernel.New(opts), eps
}

// TestOnEpisodeLifecycle pins the hook's contract across a full
// lifecycle: every emitted event restates the open activation except
// the end, which closes it with the pre-transition set over
// [start, endDay-1], clamped for same-day start+end.
func TestOnEpisodeLifecycle(t *testing.T) {
	k, eps := collectEpisodes(kernel.Options{})

	apply(t, k, 1, p1, []bgp.ASN{701}, 0) // no lifecycle, no episode
	apply(t, k, 3, p1, []bgp.ASN{701, 7018}, core.ClassDistinctPaths)
	apply(t, k, 5, p1, []bgp.ASN{701, 7018, 8584}, core.ClassDistinctPaths)
	apply(t, k, 6, p1, []bgp.ASN{701, 7018, 8584}, core.ClassSplitView)
	apply(t, k, 9, p1, []bgp.ASN{701}, 0)
	// Same-day start and end: the closed episode still spans its day.
	apply(t, k, 10, p1, []bgp.ASN{1, 2}, core.ClassOrigTranAS)
	apply(t, k, 10, p1, nil, 0)

	want := []core.Episode{
		{Prefix: p1, Origins: []bgp.ASN{701, 7018}, Class: core.ClassDistinctPaths, Seq: 1, Start: 3, End: 3, Open: true},
		{Prefix: p1, Origins: []bgp.ASN{701, 7018, 8584}, Class: core.ClassDistinctPaths, Seq: 2, Start: 3, End: 5, Open: true},
		{Prefix: p1, Origins: []bgp.ASN{701, 7018, 8584}, Class: core.ClassSplitView, Seq: 3, Start: 3, End: 6, Open: true},
		{Prefix: p1, Origins: []bgp.ASN{701, 7018, 8584}, Class: core.ClassSplitView, Seq: 4, Start: 3, End: 8, Open: false},
		{Prefix: p1, Origins: []bgp.ASN{1, 2}, Class: core.ClassOrigTranAS, Seq: 5, Start: 10, End: 10, Open: true},
		{Prefix: p1, Origins: []bgp.ASN{1, 2}, Class: core.ClassOrigTranAS, Seq: 6, Start: 10, End: 10, Open: false},
	}
	if !reflect.DeepEqual(*eps, want) {
		t.Fatalf("episodes:\n got %+v\nwant %+v", *eps, want)
	}
}

// TestOnEpisodeSeqsMatchEvents: the hook fires exactly once per emitted
// lifecycle event, carrying that event's Seq.
func TestOnEpisodeSeqsMatchEvents(t *testing.T) {
	k, eps := collectEpisodes(kernel.Options{KeepLog: true})
	all, _ := script()
	drive(k, all)

	log := k.Log()
	if len(*eps) != len(log) {
		t.Fatalf("%d episodes for %d events", len(*eps), len(log))
	}
	for i, ep := range *eps {
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
