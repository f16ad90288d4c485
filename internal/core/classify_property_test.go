package core

import (
	"math/rand"
	"testing"

	"moas/internal/bgp"
)

// randLoopFreePath draws a random pure-sequence path with distinct ASes.
func randLoopFreePath(r *rand.Rand) bgp.Path {
	n := 1 + r.Intn(5)
	seen := map[bgp.ASN]bool{}
	ases := make([]bgp.ASN, 0, n)
	for len(ases) < n {
		a := bgp.ASN(1 + r.Intn(200)) // small universe to force overlaps
		if !seen[a] {
			seen[a] = true
			ases = append(ases, a)
		}
	}
	return bgp.Path{{Type: bgp.SegSequence, ASes: ases}}
}

// TestQuickClassifierTotal: every pair of loop-free paths with distinct
// origins classifies into exactly one of the four classes — never
// ClassNone. This is the totality property that licenses using the
// classifier on arbitrary observed route sets.
func TestQuickClassifierTotal(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for i := 0; i < 20000; i++ {
		p1, p2 := randLoopFreePath(r), randLoopFreePath(r)
		o1, _ := p1.Origin()
		o2, _ := p2.Origin()
		got := ClassifyPair(p1, p2)
		if o1 == o2 {
			if got != ClassNone {
				t.Fatalf("same-origin pair classified %v: %q / %q", got, p1, p2)
			}
			continue
		}
		switch got {
		case ClassOrigTranAS, ClassSplitView, ClassDistinctPaths, ClassRelated:
		default:
			t.Fatalf("distinct-origin pair unclassified: %q / %q -> %v", p1, p2, got)
		}
	}
}

// TestQuickClassifierSymmetric: ClassifyPair is order-independent.
func TestQuickClassifierSymmetric(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	for i := 0; i < 20000; i++ {
		p1, p2 := randLoopFreePath(r), randLoopFreePath(r)
		if ClassifyPair(p1, p2) != ClassifyPair(p2, p1) {
			t.Fatalf("asymmetric classification: %q / %q", p1, p2)
		}
	}
}

// TestQuickClassifierDefinitions cross-checks each class against a direct
// restatement of its definition.
func TestQuickClassifierDefinitions(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	// inTransit: a is on p other than as its origin, the path's last AS.
	inTransit := func(p bgp.Path, a bgp.ASN) bool {
		_, hasOrigin := p.Origin()
		for si, s := range p {
			for ai, x := range s.ASes {
				if x == a && !(hasOrigin && si == len(p)-1 && ai == len(s.ASes)-1) {
					return true
				}
			}
		}
		return false
	}
	shares := func(p1, p2 bgp.Path) bool {
		for _, s := range p1 {
			for _, a := range s.ASes {
				if p2.Contains(a) {
					return true
				}
			}
		}
		return false
	}
	for i := 0; i < 20000; i++ {
		p1, p2 := randLoopFreePath(r), randLoopFreePath(r)
		o1, _ := p1.Origin()
		o2, _ := p2.Origin()
		if o1 == o2 {
			continue
		}
		got := ClassifyPair(p1, p2)
		wantOrigTran := inTransit(p2, o1) || inTransit(p1, o2)
		pen1, ok1 := p1.Penultimate()
		pen2, ok2 := p2.Penultimate()
		wantSplit := ok1 && ok2 && pen1 == pen2
		switch {
		case wantOrigTran:
			if got != ClassOrigTranAS {
				t.Fatalf("%q / %q: want OrigTranAS, got %v", p1, p2, got)
			}
		case wantSplit:
			if got != ClassSplitView {
				t.Fatalf("%q / %q: want SplitView, got %v", p1, p2, got)
			}
		case !shares(p1, p2):
			if got != ClassDistinctPaths {
				t.Fatalf("%q / %q: want DistinctPaths, got %v", p1, p2, got)
			}
		default:
			if got != ClassRelated {
				t.Fatalf("%q / %q: want Related, got %v", p1, p2, got)
			}
		}
	}
}

// TestQuickRegistryDurationInvariants: under random observation sequences,
// DaysObserved equals the number of distinct recorded days, and
// FirstDay/LastDay bracket them.
func TestQuickRegistryDurationInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	for trial := 0; trial < 300; trial++ {
		reg := NewRegistry()
		p := bgp.PrefixFromUint32(r.Uint32(), 24)
		days := map[int]bool{}
		last := -1
		// Random monotone day sequence with repeats (same-day
		// re-observation must be idempotent).
		day := 0
		for i := 0; i < 50; i++ {
			if r.Intn(3) > 0 {
				day += r.Intn(4) // may stay on the same day
			}
			reg.Record(day, p, []bgp.ASN{1, 2}, ClassDistinctPaths)
			days[day] = true
			if day > last {
				last = day
			}
		}
		c, ok := reg.Get(p)
		if !ok {
			t.Fatal("conflict missing")
		}
		if c.DaysObserved != len(days) {
			t.Fatalf("DaysObserved = %d, distinct days = %d", c.DaysObserved, len(days))
		}
		if c.LastDay != last {
			t.Fatalf("LastDay = %d, want %d", c.LastDay, last)
		}
		min := last
		for d := range days {
			if d < min {
				min = d
			}
		}
		if c.FirstDay != min {
			t.Fatalf("FirstDay = %d, want %d", c.FirstDay, min)
		}
	}
}
