package kernel_test

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"sort"
	"testing"

	"moas/internal/bgp"
	"moas/internal/collector"
	"moas/internal/core"
	"moas/internal/kernel"
	"moas/internal/mrt"
	"moas/internal/rib"
	"moas/internal/scenario"
)

// This file is the kernel-level equivalence property: driving one kernel
// with batch table-scan observations and another with streaming
// per-update observations of the same scenario yields identical episode
// sets, classes and durations. Both drives are written out here, against
// the raw kernel API, so the property holds independently of the
// driver/stream adapters built on top of it.

// driveBatch feeds the kernel the paper's methodology: every observed
// day, assess every prefix in the complete multi-peer table, dissolve
// conflicts that left the table, close the day.
func driveBatch(t *testing.T, k *kernel.Kernel, sc *scenario.Scenario) {
	t.Helper()
	for _, day := range sc.ObservedDays {
		view := sc.TableViewAt(day)
		seen := make(map[bgp.Prefix]struct{})
		view.Walk(func(p bgp.Prefix, routes []rib.PeerRoute) bool {
			origins, _ := rib.OriginsOf(routes)
			var class core.Class
			if len(origins) >= 2 {
				class = core.ClassifyRoutes(routes)
				seen[p] = struct{}{}
			}
			k.Apply(kernel.Obs{Day: day, Prefix: p, Origins: origins, Class: class})
			return true
		})
		var gone []bgp.Prefix
		k.WalkActive(func(p bgp.Prefix, _ kernel.View) bool {
			if _, ok := seen[p]; !ok {
				gone = append(gone, p)
			}
			return true
		})
		for _, p := range gone {
			k.Apply(kernel.Obs{Day: day, Prefix: p})
		}
		k.CloseDay(day)
	}
}

// driveStream feeds the kernel the streaming engine's observations: the
// scenario's BGP4MP update archive replayed record by record over
// per-peer Adj-RIB-In maps, reassessing a prefix after every route
// change, with day closes as record timestamps cross day boundaries.
func driveStream(t *testing.T, k *kernel.Kernel, sc *scenario.Scenario, archive []byte) {
	t.Helper()
	days := sc.ObservedDays
	times := make([]uint32, len(days))
	for i, d := range days {
		times[i] = uint32(sc.DayDate(d).Unix())
	}
	type peerKey struct {
		ip [16]byte
		as bgp.ASN
	}
	routes := make(map[bgp.Prefix]map[peerKey]*bgp.Attrs)

	reassess := func(p bgp.Prefix, day int) {
		var prs []rib.PeerRoute
		for pk, attrs := range routes[p] {
			prs = append(prs, rib.PeerRoute{PeerAS: pk.as, Route: bgp.Route{Prefix: p, Attrs: attrs}})
		}
		origins, _ := rib.OriginsOf(prs)
		var class core.Class
		if len(origins) >= 2 {
			class = core.ClassifyRoutes(prs)
		}
		k.Apply(kernel.Obs{Day: day, Prefix: p, Origins: origins, Class: class})
	}

	idx := 0
	fr := mrt.NewFramer(bytes.NewReader(archive))
	var body []byte
	var msg mrt.BGP4MPMessage
	for {
		h, b, err := fr.NextInto(body[:0])
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		body = b
		if !h.CarriesMessage() {
			continue
		}
		for idx+1 < len(days) && h.Timestamp >= times[idx+1] {
			k.CloseDay(days[idx])
			idx++
		}
		if err := msg.DecodeBGP4MPMessageBorrow(body); err != nil {
			t.Fatal(err)
		}
		decoded, err := msg.Message()
		if err != nil {
			t.Fatal(err)
		}
		upd, ok := decoded.(*bgp.Update)
		if !ok {
			continue
		}
		pk := peerKey{ip: msg.PeerIP, as: msg.PeerAS}
		day := days[idx]
		for _, p := range upd.Withdrawn {
			if m := routes[p]; m != nil {
				if _, had := m[pk]; had {
					delete(m, pk)
					reassess(p, day)
					if len(m) == 0 {
						delete(routes, p)
					}
				}
			}
		}
		if upd.Attrs != nil {
			for _, p := range upd.NLRI {
				m := routes[p]
				if m == nil {
					m = make(map[peerKey]*bgp.Attrs)
					routes[p] = m
				}
				if old, had := m[pk]; had && old.Equal(upd.Attrs) {
					continue
				}
				m[pk] = upd.Attrs
				reassess(p, day)
			}
		}
	}
	for idx < len(days) {
		k.CloseDay(days[idx])
		idx++
	}
}

// activeSet flattens a kernel's active conflicts into a sorted,
// comparable form.
func activeSet(k *kernel.Kernel) []string {
	var out []string
	k.WalkActive(func(p bgp.Prefix, v kernel.View) bool {
		out = append(out, fmt.Sprintf("%s origins=%v class=%s since=%d", p, v.Origins, v.Class, v.Since))
		return true
	})
	sort.Strings(out)
	return out
}

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

// TestBatchStreamEquivalence is the property test behind the refactor:
// across scenario seeds, the batch table-scan drive and the streaming
// update drive must produce identical episode sets (registry prefixes),
// classifications (per-class day counts), durations (DaysObserved,
// first/last day) and final active conflict states.
func TestBatchStreamEquivalence(t *testing.T) {
	for _, seed := range []int64{42, 7, 20260728} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			spec := scenario.TestSpec()
			spec.Seed = seed
			sc, err := scenario.Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := collector.WriteUpdateArchive(&buf, sc); err != nil {
				t.Fatal(err)
			}

			kb := kernel.New(kernel.Options{})
			driveBatch(t, kb, sc)
			ks := kernel.New(kernel.Options{})
			driveStream(t, ks, sc, buf.Bytes())

			diffRegistries(t, kb.Registry(), ks.Registry())
			if ab, as := activeSet(kb), activeSet(ks); !reflect.DeepEqual(ab, as) {
				t.Fatalf("final active sets differ:\n batch  %v\n stream %v", ab, as)
			}
			if kb.Registry().Len() == 0 {
				t.Fatal("property vacuous: scenario produced no conflicts")
			}
		})
	}
}
