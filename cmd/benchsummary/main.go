// Command benchsummary distills a Go benchmark text recording (the
// BENCH_stream.json `make bench` writes) into a small schema'd JSON
// summary, so the bench-trend job and future issues can diff numbers
// (updates/s, allocs/update) instead of parsing benchstat prose. The
// text recording stays the benchstat-compatible source of truth; the
// summary is the machine-readable sidecar.
//
//	benchsummary -in BENCH_stream.json -out BENCH_summary.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// result is one benchmark configuration averaged over its repetitions.
type result struct {
	Bench   string `json:"bench"`
	Shards  int    `json:"shards,omitempty"`
	Workers int    `json:"workers,omitempty"`
	Samples int    `json:"samples"`

	NsPerOp         float64 `json:"ns_per_op"`
	UpdatesPerSec   float64 `json:"updates_per_sec,omitempty"`
	AllocsPerUpdate float64 `json:"allocs_per_update,omitempty"`
	MBPerSec        float64 `json:"mb_per_sec,omitempty"`
	BytesPerOp      float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp     float64 `json:"allocs_per_op,omitempty"`
	ResidentMB      float64 `json:"resident_mb,omitempty"`
	BytesPerPrefix  float64 `json:"bytes_per_prefix,omitempty"`
}

// summary is the artifact schema. Bump SchemaVersion on any breaking
// field change so trend tooling can refuse mixed artifacts.
type summary struct {
	SchemaVersion int    `json:"schema_version"`
	NProc         int    `json:"nproc"`
	Goos          string `json:"goos,omitempty"`
	Goarch        string `json:"goarch,omitempty"`
	CPU           string `json:"cpu,omitempty"`

	Results []result `json:"results"`
}

// unitField maps a benchfmt unit to the result field it accumulates
// into. Units outside the schema (distinct-attrs, episodes, bytes) are
// deliberately dropped: the summary is a stable contract, not a dump.
func unitField(r *result, unit string) *float64 {
	switch unit {
	case "ns/op":
		return &r.NsPerOp
	case "updates/s":
		return &r.UpdatesPerSec
	case "allocs/update":
		return &r.AllocsPerUpdate
	case "MB/s":
		return &r.MBPerSec
	case "B/op":
		return &r.BytesPerOp
	case "allocs/op":
		return &r.AllocsPerOp
	case "resident-MB":
		return &r.ResidentMB
	case "bytes/prefix":
		return &r.BytesPerPrefix
	}
	return nil
}

// benchName strips the Benchmark prefix and the -GOMAXPROCS suffix Go
// appends when -cpu is not 1, so the same configuration aggregates
// under one key across cpu counts.
func benchName(field string) string {
	name := strings.TrimPrefix(field, "Benchmark")
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	return name
}

// subParam pulls a k=v sub-benchmark segment (e.g. shards=4) out of a
// slash-structured name; 0 when absent.
func subParam(name, key string) int {
	for _, seg := range strings.Split(name, "/") {
		if v, ok := strings.CutPrefix(seg, key+"="); ok {
			if n, err := strconv.Atoi(v); err == nil {
				return n
			}
		}
	}
	return 0
}

func parse(path string) (*summary, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	sum := &summary{SchemaVersion: 1}
	byName := make(map[string]*result)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "nproc:"); ok {
			sum.NProc, _ = strconv.Atoi(strings.TrimSpace(v))
			continue
		}
		if v, ok := strings.CutPrefix(line, "goos:"); ok {
			sum.Goos = strings.TrimSpace(v)
			continue
		}
		if v, ok := strings.CutPrefix(line, "goarch:"); ok {
			sum.Goarch = strings.TrimSpace(v)
			continue
		}
		if v, ok := strings.CutPrefix(line, "cpu:"); ok {
			sum.CPU = strings.TrimSpace(v)
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := benchName(fields[0])
		r := byName[name]
		if r == nil {
			r = &result{
				Bench:   name,
				Shards:  subParam(name, "shards"),
				Workers: subParam(name, "workers"),
			}
			byName[name] = r
			sum.Results = append(sum.Results, result{}) // reserve order slot
			sum.Results[len(sum.Results)-1].Bench = name
		}
		r.Samples++
		// fields[1] is the iteration count; the rest are value/unit pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad value %q in %q", path, fields[i], line)
			}
			if dst := unitField(r, fields[i+1]); dst != nil {
				*dst += v
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(sum.Results) == 0 {
		return nil, fmt.Errorf("%s: no benchmark lines found", path)
	}
	for i := range sum.Results {
		r := byName[sum.Results[i].Bench]
		n := float64(r.Samples)
		r.NsPerOp /= n
		r.UpdatesPerSec /= n
		r.AllocsPerUpdate /= n
		r.MBPerSec /= n
		r.BytesPerOp /= n
		r.AllocsPerOp /= n
		r.ResidentMB /= n
		r.BytesPerPrefix /= n
		sum.Results[i] = *r
	}
	return sum, nil
}

func main() {
	in := flag.String("in", "BENCH_stream.json", "benchfmt text recording to summarize")
	out := flag.String("out", "BENCH_summary.json", "JSON summary to write")
	flag.Parse()

	sum, err := parse(*in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchsummary: %v\n", err)
		os.Exit(1)
	}
	enc, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchsummary: %v\n", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchsummary: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("benchsummary: %s: %d configurations -> %s\n", *in, len(sum.Results), *out)
}
