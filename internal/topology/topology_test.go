package topology

import (
	"math/rand"
	"testing"

	"moas/internal/bgp"
)

// edgeCount returns the number of undirected links.
func edgeCount(g *Graph) int {
	n := 0
	for _, es := range g.adj {
		n += len(es)
	}
	return n / 2
}

func TestGraphDuplicateRelationshipPanics(t *testing.T) {
	g := NewGraph()
	g.AddAS(701, Tier1)
	g.AddAS(10000, Tier2)
	g.AddTransit(701, 10000)
	defer func() {
		if recover() == nil {
			t.Error("AddPeering on already-connected pair did not panic")
		}
	}()
	g.AddPeering(701, 10000)
}

func TestGraphBasics(t *testing.T) {
	g := NewGraph()
	g.AddAS(701, Tier1)
	g.AddAS(1239, Tier1)
	g.AddAS(10000, Tier2)
	g.AddAS(30000, TierStub)
	g.AddPeering(701, 1239)
	g.AddTransit(701, 10000)
	g.AddTransit(1239, 10000)
	g.AddTransit(10000, 30000)

	if g.Len() != 4 || edgeCount(g) != 4 {
		t.Fatalf("Len=%d edgeCount=%d", g.Len(), edgeCount(g))
	}
	if !g.Has(701) || g.Has(9999) {
		t.Error("Has wrong")
	}
	if g.TierOf(30000) != TierStub || g.TierOf(701) != Tier1 || g.TierOf(4242) != TierStub {
		t.Error("TierOf wrong")
	}
	if ps := g.Providers(10000); len(ps) != 2 || ps[0] != 701 || ps[1] != 1239 {
		t.Errorf("Providers(10000) = %v", ps)
	}
	if cs := g.Customers(701); len(cs) != 1 || cs[0] != 10000 {
		t.Errorf("Customers(701) = %v", cs)
	}
	if ps := g.Peers(701); len(ps) != 1 || ps[0] != 1239 {
		t.Errorf("Peers(701) = %v", ps)
	}
	if !g.Connected(10000, 30000) || g.Connected(701, 30000) {
		t.Error("Connected wrong")
	}
	if g.Index(701) < 0 || g.ByIndex(g.Index(701)) != 701 {
		t.Error("Index round trip broken")
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestGraphPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	g := NewGraph()
	g.AddAS(1, Tier1)
	g.AddAS(2, Tier2)
	g.AddTransit(1, 2)
	mustPanic("duplicate AS", func() { g.AddAS(1, Tier1) })
	mustPanic("self transit", func() { g.AddTransit(1, 1) })
	mustPanic("self peering", func() { g.AddPeering(2, 2) })
	mustPanic("duplicate link", func() { g.AddTransit(1, 2) })
	mustPanic("unknown AS neighbors", func() { g.Neighbors(99) })
}

func TestGenerateDefault(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Tier2, cfg.Tier3, cfg.Stubs = 20, 60, 400 // scaled for test speed
	g, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.Tier1 + cfg.Tier2 + cfg.Tier3 + cfg.Stubs
	if g.Len() != want {
		t.Fatalf("Len = %d, want %d", g.Len(), want)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every non-tier-1 AS must have at least one provider (connectivity).
	for _, a := range g.ASes() {
		if g.TierOf(a) == Tier1 {
			continue
		}
		if len(g.Providers(a)) == 0 {
			t.Fatalf("%v has no provider", a)
		}
	}
	// Tier-1 clique: all pairs peer.
	for i := 0; i < cfg.Tier1; i++ {
		for j := i + 1; j < cfg.Tier1; j++ {
			if !g.Connected(Tier1ASNs[i], Tier1ASNs[j]) {
				t.Fatalf("tier-1 %v and %v not connected", Tier1ASNs[i], Tier1ASNs[j])
			}
		}
	}
}

func TestGenerateRequiredStubs(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Tier2, cfg.Tier3, cfg.Stubs = 10, 20, 50
	cfg.RequiredStubs = []bgp.ASN{8584, 15412}
	g, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range cfg.RequiredStubs {
		if !g.Has(a) || g.TierOf(a) != TierStub {
			t.Fatalf("required stub %v missing or wrong tier", a)
		}
		if len(g.Providers(a)) == 0 {
			t.Fatalf("required stub %v unconnected", a)
		}
	}
	// Colliding with the core is rejected.
	cfg.RequiredStubs = []bgp.ASN{701}
	if _, err := Generate(cfg); err == nil {
		t.Fatal("core collision accepted")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Tier2, cfg.Tier3, cfg.Stubs = 10, 30, 100
	g1, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g1.Len() != g2.Len() || edgeCount(g1) != edgeCount(g2) {
		t.Fatal("same seed produced different graphs")
	}
	for _, a := range g1.ASes() {
		n1, n2 := g1.Neighbors(a), g2.Neighbors(a)
		if len(n1) != len(n2) {
			t.Fatalf("AS %v degree differs", a)
		}
		for i := range n1 {
			if n1[i] != n2[i] {
				t.Fatalf("AS %v adjacency differs", a)
			}
		}
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Tier1 = 0
	if _, err := Generate(cfg); err == nil {
		t.Error("Tier1=0 accepted")
	}
	cfg = DefaultGenConfig()
	cfg.Tier1 = len(Tier1ASNs) + 1
	if _, err := Generate(cfg); err == nil {
		t.Error("oversized Tier1 accepted")
	}
	cfg = DefaultGenConfig()
	cfg.Tier2 = 0
	if _, err := Generate(cfg); err == nil {
		t.Error("Tier2=0 accepted")
	}
}

func TestBuildPlan(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Tier2, cfg.Tier3, cfg.Stubs = 10, 30, 300
	g, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := BuildPlan(g, DefaultPlanConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.All) == 0 {
		t.Fatal("empty plan")
	}
	// Owner map and ByAS must agree; prefixes unique and canonical.
	seen := map[bgp.Prefix]bool{}
	for a, ps := range plan.ByAS {
		for _, p := range ps {
			if seen[p] {
				t.Fatalf("prefix %s allocated twice", p)
			}
			seen[p] = true
			if plan.Owner[p] != a {
				t.Fatalf("owner mismatch for %s", p)
			}
			if !p.IsValid() || p.Family() != bgp.FamilyIPv4 {
				t.Fatalf("bad prefix %s", p)
			}
		}
	}
	if len(seen) != len(plan.All) || len(seen) != len(plan.Owner) {
		t.Fatalf("plan sizes inconsistent: %d/%d/%d", len(seen), len(plan.All), len(plan.Owner))
	}
	// Every AS originates something.
	for _, a := range g.ASes() {
		if len(plan.ByAS[a]) == 0 {
			t.Fatalf("%v originates nothing", a)
		}
	}
	// /24 dominates, as in the real table.
	count24 := 0
	for _, p := range plan.All {
		if p.Bits() == 24 {
			count24++
		}
	}
	frac := float64(count24) / float64(len(plan.All))
	if frac < 0.45 || frac > 0.65 {
		t.Errorf("/24 fraction = %.2f, want ~0.55", frac)
	}
}

func TestBuildPlanDeterministic(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Tier2, cfg.Tier3, cfg.Stubs = 5, 10, 50
	g, _ := Generate(cfg)
	p1, err := BuildPlan(g, DefaultPlanConfig())
	if err != nil {
		t.Fatal(err)
	}
	p2, err := BuildPlan(g, DefaultPlanConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(p1.All) != len(p2.All) {
		t.Fatal("plan sizes differ across runs")
	}
	for i := range p1.All {
		if p1.All[i] != p2.All[i] {
			t.Fatal("plan order differs across runs")
		}
	}
}

func TestAllocatorSkipsReserved(t *testing.T) {
	al := newAllocator()
	for i := 0; i < 100000; i++ {
		p, err := al.next(24)
		if err != nil {
			t.Fatal(err)
		}
		hi := p.Uint32() >> 24
		if hi == 127 || hi == 10 || hi == 0 || hi >= 224 {
			t.Fatalf("allocated from reserved space: %s", p)
		}
	}
}

func TestLengthSamplerRespectsWeights(t *testing.T) {
	s := newLengthSampler([]LengthBucket{{16, 0.5}, {24, 0.5}})
	counts := map[uint8]int{}
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 10000; i++ {
		counts[s.sample(r)]++
	}
	if counts[16] < 4000 || counts[24] < 4000 {
		t.Fatalf("sampler skewed: %v", counts)
	}
}
