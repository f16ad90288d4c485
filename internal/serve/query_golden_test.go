package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"testing"
	"time"
)

// parkAt steps a created or paused scenario forward until exactly closed
// observation days are closed and its replay is parked there. The
// scenario must be paced slowly enough (days_per_sec well under one)
// that the replay sits in its pacing sleep after every day close: each
// resume then applies one more day, and the pause that follows wakes the
// sleep and parks at the gate right behind that close — a deterministic
// day boundary, where a pause against a free-running replay lands on an
// arbitrary record.
func parkAt(t *testing.T, s *Scenario, closed int) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	wait := func(what string, ok func() bool) {
		t.Helper()
		for !ok() {
			if time.Now().After(deadline) {
				t.Fatalf("scenario %s: no %s (status %+v)", s.ID(), what, s.Status())
			}
			time.Sleep(time.Millisecond)
		}
	}
	for n := s.Status().ClosedDays; n < closed; n++ {
		step := s.Resume
		if s.Status().State == StateCreated {
			step = s.Start
		}
		if err := step(); err != nil {
			t.Fatal(err)
		}
		wait("day close", func() bool { return s.Status().ClosedDays > n })
		if err := s.Pause(); err != nil {
			t.Fatal(err)
		}
		wait("park", s.Engine().Parked)
	}
	if got := s.Status().ClosedDays; got != closed {
		t.Fatalf("scenario %s parked with %d days closed, want %d", s.ID(), got, closed)
	}
}

// statsVolatile names the /stats fields that depend on how far the
// decode stage has read ahead of the parked apply cursor, or on the wall
// clock; the golden pins their presence, not their values.
var statsVolatile = map[string]bool{
	"distinct_attrs": true, "interner_bytes": true,
	"frames": true, "frames_per_sec": true, "ring_occupancy": true,
}

func scrubVolatile(v any) {
	if m, ok := v.(map[string]any); ok {
		for k, e := range m {
			if statsVolatile[k] {
				m[k] = "volatile"
			} else {
				scrubVolatile(e)
			}
		}
	}
}

// TestQueryDocumentsGolden pins the per-scenario query endpoints —
// conflicts, prefix, as, healthz and their 400s — byte for byte, and
// /stats as generic JSON with sorted keys (its key order is not part of
// the contract), on the small synth scenario parked on the second day of
// the AS 8584 storm. The file was generated by the commit before the
// query handlers moved from internal/stream into this package.
// Regenerate with MOAS_GEN_GOLDEN=1 only after a deliberate change to a
// document.
func TestQueryDocumentsGolden(t *testing.T) {
	const golden = "testdata/query_golden.txt"
	reg := NewRegistry()
	defer reg.Close()
	s, err := reg.Create(ScenarioConfig{ID: "q", Source: SourceSynth, Scale: "small", Shards: 2, DaysPerSec: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	parkAt(t, s, 38)

	srv := httptest.NewServer(NewHandler(reg))
	defer srv.Close()
	var got bytes.Buffer
	fetch := func(path string) []byte {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + "/scenarios/q" + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		doc, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		got.WriteString("== GET " + path + "\n" + resp.Status + "\n")
		return doc
	}
	for _, path := range []string{
		"/conflicts",
		"/conflicts?as=8584&limit=2",
		"/conflicts?limit=1",
		"/conflicts?as=x",
		"/conflicts?as=0",
		"/prefix/24.10.4.0/23",
		"/prefix/203.0.113.0/24",
		"/prefix/not-a-cidr",
		"/as/8584",
		"/as/xyz",
		"/as/0",
		"/healthz",
	} {
		got.Write(fetch(path))
	}
	var stats any
	if err := json.Unmarshal(fetch("/stats"), &stats); err != nil {
		t.Fatal(err)
	}
	scrubVolatile(stats)
	sorted, err := json.MarshalIndent(stats, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got.Write(append(sorted, '\n'))

	if os.Getenv("MOAS_GEN_GOLDEN") != "" {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("query documents differ from %s:\n%s", golden, got.Bytes())
	}
}
