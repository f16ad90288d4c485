package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeSubtractsDirectChildrenOnly(t *testing.T) {
	spans := []span{
		{Name: "chunk", Start: 0, End: 100, Parent: -1, Chunk: 0},
		{Name: "mrt", Start: 0, End: 10, Parent: 0, Chunk: 0},
		{Name: "bgp", Start: 10, End: 40, Parent: 0, Chunk: 0},
		{Name: "stream", Start: 40, End: 95, Parent: 0, Chunk: 0},
		{Name: "stream.closeday", Start: 50, End: 70, Parent: 3, Chunk: 0},
		{Name: "chunk", Start: 100, End: 150, Parent: -1, Chunk: 1},
		{Name: "mrt", Start: 100, End: 120, Parent: 5, Chunk: 1},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{
		"chunk":           5 + 30, // 100-(10+30+55), 50-20; the grandchild is not subtracted twice
		"mrt":             10 + 20,
		"bgp":             30,
		"stream":          55 - 20,
		"stream.closeday": 20,
	}
	var sum time.Duration
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self[%s] = %d, want %d", name, self[name], w)
		}
		sum += self[name]
	}
	if sum != 150 {
		t.Errorf("self times sum to %d, want the roots' 150", sum)
	}
}

func TestNilTracerRecordsNothingAndTraceFileRoundTrips(t *testing.T) {
	var off *tracer
	off.end(off.begin("mrt", -1, 0)) // must not panic

	tr := newTracer()
	root := tr.begin("chunk", -1, 7)
	child := tr.begin("bgp", root, 7)
	tr.end(child)
	tr.end(root)
	path := filepath.Join(t.TempDir(), "out", "trace-x.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ Spans []span }
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Spans) != 2 || doc.Spans[1].Parent != 0 || doc.Spans[1].Chunk != 7 || doc.Spans[1].Name != "bgp" {
		t.Fatalf("trace file spans = %+v", doc.Spans)
	}
	if doc.Spans[0].End < doc.Spans[1].End || doc.Spans[1].End < doc.Spans[1].Start {
		t.Errorf("span times out of order: %+v", doc.Spans)
	}
}
