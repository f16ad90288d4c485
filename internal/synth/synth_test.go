package synth

import (
	"bytes"
	"io"
	"reflect"
	"runtime"
	"testing"

	"moas/internal/bgp"
	"moas/internal/binenc/binenctest"
	"moas/internal/core"
	"moas/internal/mrt"
	"moas/internal/scenario"
)

func testPatterns() []Pattern {
	return []Pattern{
		Anycast(6),
		RouteLeak(6),
		GradualHijack(6),
		FlapStorm(4, 8, 2),
		FromStorm(scenario.Storm{Attacker: 7007, Via: 701, DayCounts: []int{2, 3}}),
	}
}

func testConfig() Config {
	return Config{
		Seed:        42,
		Days:        10,
		Prefixes:    256,
		ASes:        128,
		Vantages:    4,
		ChurnPerDay: 4,
		Patterns:    testPatterns(),
	}
}

func drain(t testing.TB, s *Stream) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStreamDeterministic: same Config, same bytes and same truth —
// including when the very same Pattern values are reused for the second
// stream (plan must reset pattern state).
func TestStreamDeterministic(t *testing.T) {
	cfg := testConfig()
	s1, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b1 := drain(t, s1)
	s2, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b2 := drain(t, s2)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("same seed produced different archives: %d vs %d bytes", len(b1), len(b2))
	}
	if !reflect.DeepEqual(s1.Truth(), s2.Truth()) {
		t.Fatal("same seed produced different truth logs")
	}
	if len(b1) == 0 || len(s1.Truth()) == 0 {
		t.Fatalf("empty workload: %d bytes, %d episodes", len(b1), len(s1.Truth()))
	}

	s3, err := NewStream(Config{Seed: 43, Days: cfg.Days, Prefixes: cfg.Prefixes,
		ASes: cfg.ASes, Vantages: cfg.Vantages, ChurnPerDay: cfg.ChurnPerDay, Patterns: testPatterns()})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(b1, drain(t, s3)) {
		t.Fatal("different seeds produced identical archives")
	}
}

// TestTruthInvariants pins the shape every pattern promises: origins
// ascending with >= 2 members, day spans inside the run, the intended
// class and persistence label per pattern, and pattern prefixes disjoint
// from the background region.
func TestTruthInvariants(t *testing.T) {
	s, err := NewStream(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	wantClass := map[string]core.Class{
		"anycast": core.ClassDistinctPaths,
		"leak":    core.ClassSplitView,
		"hijack":  core.ClassOrigTranAS,
		"flap":    core.ClassDistinctPaths,
	}
	seen := map[string]int{}
	for i, ep := range s.Truth() {
		seen[ep.Pattern]++
		if len(ep.Origins) < 2 {
			t.Fatalf("episode %d: %d origins", i, len(ep.Origins))
		}
		for j := 1; j < len(ep.Origins); j++ {
			if ep.Origins[j] <= ep.Origins[j-1] {
				t.Fatalf("episode %d: origins not ascending: %v", i, ep.Origins)
			}
		}
		if ep.Start < 0 || ep.End < ep.Start || ep.End > s.Days()-1 {
			t.Fatalf("episode %d: span [%d,%d] outside run of %d days", i, ep.Start, ep.End, s.Days())
		}
		if ep.Prefix.Uint32() < patternBase {
			t.Fatalf("episode %d: prefix %v inside background region", i, ep.Prefix)
		}
		if want, ok := wantClass[ep.Pattern]; ok && ep.Class != want {
			t.Fatalf("episode %d (%s): class %v, want %v", i, ep.Pattern, ep.Class, want)
		}
		if ep.Persistent != (ep.Pattern == "anycast") {
			t.Fatalf("episode %d (%s): persistent=%v", i, ep.Pattern, ep.Persistent)
		}
		if ep.Open != (ep.Pattern == "anycast") {
			t.Fatalf("episode %d (%s): open=%v", i, ep.Pattern, ep.Open)
		}
	}
	for _, p := range []string{"anycast", "leak", "hijack", "flap", "storm"} {
		if seen[p] == 0 {
			t.Fatalf("no episodes from pattern %q (have %v)", p, seen)
		}
	}
}

// TestArchiveDayAxis: every record is a BGP4MP UPDATE (the cursor
// invariant the oracle's checkpoint comparison rests on) and every day
// 0..Days-1 emits at least one record at timestamp day*86400 (the dense
// day axis that keeps all three day-numbering schemes in agreement).
func TestArchiveDayAxis(t *testing.T) {
	s, err := NewStream(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	archive := drain(t, s)
	days := map[int]bool{}
	f := mrt.NewFramer(bytes.NewReader(archive))
	for {
		h, err := f.Skip()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if !h.CarriesMessage() {
			t.Fatalf("non-UPDATE record type %d/%d in archive", h.Type, h.Subtype)
		}
		if h.Timestamp%86400 != 0 {
			t.Fatalf("timestamp %d not day-aligned", h.Timestamp)
		}
		days[int(h.Timestamp/86400)] = true
	}
	for d := 0; d < s.Days(); d++ {
		if !days[d] {
			t.Fatalf("day %d emitted no records", d)
		}
	}
	if len(days) != s.Days() {
		t.Fatalf("%d distinct days, want %d", len(days), s.Days())
	}
}

// TestScaleBoundedMemory is the no-materialization proof: generating a
// million-prefix, multi-vantage, maximum-AS-pool archive must hold only
// scratch buffers — the heap high-water mark stays tens of MB below any
// full-table representation, while the output runs to hundreds of MB.
func TestScaleBoundedMemory(t *testing.T) {
	vantages := 4
	if testing.Short() {
		vantages = 2
	}
	s, err := NewStream(Config{
		Seed:     1,
		Days:     4,
		Prefixes: 1 << 20,
		ASes:     75000, // clamps to the 2-octet ceiling
		Vantages: vantages,
		Patterns: []Pattern{Anycast(64), FlapStorm(32, 32, 1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Config().ASes; got != maxOriginASes {
		t.Fatalf("ASes clamp: %d, want %d", got, maxOriginASes)
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var total int64
	chunk := make([]byte, 1<<16)
	for {
		n, err := s.Read(chunk)
		total += int64(n)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)

	if total < 32<<20 {
		t.Fatalf("archive only %d bytes at 1M-prefix scale", total)
	}
	// The generator's live heap: emitter scratch plus the planned pattern
	// episodes — nowhere near a materialized 1M-prefix table.
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 32<<20 {
		t.Fatalf("heap grew %d bytes while streaming %d bytes — table materialized?", grew, total)
	}
	t.Logf("streamed %d MB holding <32 MB heap", total>>20)
}

func TestTruthLogRoundTrip(t *testing.T) {
	s, err := NewStream(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	blob := AppendTruthLog(nil, s.Truth())
	back, err := DecodeTruthLog(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, s.Truth()) {
		t.Fatal("truth log did not round-trip")
	}
	if _, err := DecodeTruthLog(blob[:len(blob)-1]); err == nil {
		t.Fatal("truncated truth log decoded without error")
	}
	if _, err := DecodeTruthLog(append([]byte("XTRU"), blob[4:]...)); err == nil {
		t.Fatal("bad magic decoded without error")
	}
}

// TestTruthLogRefusesPaddedFrames: one junk byte wrapped into an
// episode frame, or left after the last one, is refused.
func TestTruthLogRefusesPaddedFrames(t *testing.T) {
	eps := []Episode{
		{Prefix: bgp.MustParsePrefix("10.0.0.0/8"), Origins: []bgp.ASN{7, 9}, Class: core.ClassDistinctPaths, Start: 1, End: 4, Pattern: "flap"},
		{Prefix: bgp.MustParsePrefix("10.1.0.0/16"), Origins: []bgp.ASN{3}, Start: 2, End: 2, Open: true, Pattern: "leak"},
	}
	blob := AppendTruthLog(nil, eps)
	if _, err := DecodeTruthLog(blob); err != nil {
		t.Fatalf("unpadded truth log: %v", err)
	}
	// Magic, the version byte and the one-byte episode count.
	for _, c := range binenctest.Padded(t, blob, len(truthMagic)+2, "episode 0", "episode 1") {
		if _, err := DecodeTruthLog(c.Data); err == nil {
			t.Errorf("a junk byte in the %s frame was accepted", c.Name)
		}
	}
}

func TestParseMix(t *testing.T) {
	pats, err := ParseMix("anycast,leak:3,hijack,flap", 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(pats) != 4 {
		t.Fatalf("%d patterns, want 4", len(pats))
	}
	names := []string{"anycast", "leak", "hijack", "flap"}
	for i, p := range pats {
		if p.Name() != names[i] {
			t.Fatalf("pattern %d: %q, want %q", i, p.Name(), names[i])
		}
	}
	for _, bad := range []string{"", "bogus", "anycast:x", "leak:0"} {
		if _, err := ParseMix(bad, 8); err == nil {
			t.Fatalf("ParseMix(%q) accepted", bad)
		}
	}
}
