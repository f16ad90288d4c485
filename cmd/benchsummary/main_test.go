package main

import (
	"os"
	"path/filepath"
	"testing"
)

const recording = `nproc: 2
goos: linux
goarch: amd64
pkg: moas/internal/stream
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkStreamReplay/shards=4/workers=1-2   30  40000000 ns/op  16.00 MB/s  0.40 allocs/update  100.0 bytes/prefix  4369 distinct-attrs  110.0 resident-MB  150000 updates/s  11000000 B/op  2500 allocs/op
BenchmarkStreamReplay/shards=4/workers=1-2   30  20000000 ns/op  32.00 MB/s  0.40 allocs/update  104.0 bytes/prefix  4369 distinct-attrs  114.0 resident-MB  250000 updates/s  11000000 B/op  2500 allocs/op
BenchmarkDecodeUpdate/variant=into-2   4000000  300.0 ns/op  0 B/op  0 allocs/op
PASS
`

func TestParse(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(path, []byte(recording), 0o644); err != nil {
		t.Fatal(err)
	}
	sum, err := parse(path)
	if err != nil {
		t.Fatal(err)
	}
	if sum.SchemaVersion != 1 || sum.NProc != 2 || sum.Goos != "linux" {
		t.Fatalf("header: %+v", sum)
	}
	if len(sum.Results) != 2 {
		t.Fatalf("got %d results, want 2: %+v", len(sum.Results), sum.Results)
	}
	r := sum.Results[0]
	if r.Bench != "StreamReplay/shards=4/workers=1" || r.Shards != 4 || r.Workers != 1 || r.Samples != 2 {
		t.Fatalf("replay result: %+v", r)
	}
	// Repetitions average, and the -2 cpu suffix must not split them.
	if r.NsPerOp != 30000000 || r.UpdatesPerSec != 200000 || r.AllocsPerUpdate != 0.40 ||
		r.ResidentMB != 112 || r.BytesPerPrefix != 102 {
		t.Fatalf("replay metrics: %+v", r)
	}
	d := sum.Results[1]
	if d.Bench != "DecodeUpdate/variant=into" || d.Shards != 0 || d.NsPerOp != 300 || d.UpdatesPerSec != 0 {
		t.Fatalf("decode result: %+v", d)
	}
}

func TestParseRejectsEmpty(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "empty.txt")
	if err := os.WriteFile(path, []byte("nproc: 1\nPASS\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := parse(path); err == nil {
		t.Fatal("parse accepted a recording with no benchmark lines")
	}
}
