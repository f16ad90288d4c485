package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer. Spans of one chunk share Chunk;
// Parent is the index of the enclosing span in the tracer (-1 for a
// root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // relative to the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Chunk  int    `json:"chunk"`
}

// tracer records spans in memory; nothing is written until the run ends.
// A nil tracer records nothing, so the same composition runs untraced
// to price the tracing itself.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, chunk int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.epoch)), Parent: parent, Chunk: chunk})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = int64(time.Since(t.epoch))
}

// selfTimes sums, per span name, each span's duration minus the time its
// direct children cover: a layer's own cost, so the names add up to the
// roots' total without counting anything twice.
func selfTimes(spans []span) map[string]time.Duration {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start - child[i])
	}
	return out
}

// write stores the spans as one JSON document.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	blob, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
