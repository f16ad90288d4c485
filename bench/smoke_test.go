package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// The whole benchmark — four workloads, correctness gate, traced
// per-layer run — at sizes small enough for tier-1. Numbers mean
// nothing at this scale; that every one is produced, and that the gate
// passes on real output, is the point.
func TestSmokeAllWorkloadsTraced(t *testing.T) {
	start := time.Now()
	outDir := t.TempDir()
	var results []Result
	opts := Options{Seed: 3, Seconds: 1, Trace: true, Scale: Smoke, Root: t.TempDir(), TraceDir: outDir}
	for _, w := range Workloads {
		opts.Workload = w
		res, err := Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d %v", w, res.Correct, res.Attempted, res.Failed, res.Failures)
		}
		// Every metric is recorded by exactly the workloads the catalog
		// says measure it, and what the driver gates is never zero. A
		// void live run (a loaded test machine) withholds its open-loop
		// latencies and nothing else.
		for _, d := range Catalog {
			m := res.metric(d.Name)
			switch {
			case !d.measuredOn(w):
				if m != nil {
					t.Errorf("%s: reports %s, which the catalog says it does not measure", w, d.Name)
				}
			case m == nil:
				if !(res.Void && slices.Contains(openLoopMetrics, d.Name)) {
					t.Errorf("%s: %s was not measured", w, d.Name)
				}
			case m.Value <= 0 && (d.Driven() || d.Bound > 0):
				t.Errorf("%s: %s is %g; a gated metric must be a positive measurement", w, d.Name, m.Value)
			case m.Unit != d.Unit || m.Bound != d.Bound:
				t.Errorf("%s: %s printed as [%s] bound %g, catalog says [%s] bound %g", w, d.Name, m.Unit, m.Bound, d.Unit, d.Bound)
			}
		}
		if w == LiveServe {
			t.Logf("live-serve: void=%v, generator at most %.3f ms late", res.Void, res.get("serve.gen_late_max_ms"))
		}
		if _, err := os.Stat(filepath.Join(outDir, "trace-"+w+".json")); err != nil {
			t.Errorf("%s: %v", w, err)
		}
		results = append(results, *res)
	}

	// The driver's line carries exactly the contract's metric sets.
	for _, trace := range []bool{false, true} {
		var line struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(results[0].DriverLine(trace)), &line); err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, d := range Catalog {
			if d.Name != "failed_share" && d.Driven() != trace {
				want++
				if m, ok := line.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("trace=%v: driver line lacks %s [%s]: %+v", trace, d.Name, d.Unit, m)
				}
			}
		}
		if len(line.Metrics) != want || !line.Correct || line.Attempted < 1 {
			t.Errorf("trace=%v: driver line has %d metrics (want %d), correct=%v attempted=%d", trace, len(line.Metrics), want, line.Correct, line.Attempted)
		}
	}

	// Output files round-trip and compare against themselves cleanly.
	path := filepath.Join(outDir, "set.json")
	opts.Workload = "all"
	if err := NewOutput(opts, results).WriteFile(path); err != nil {
		t.Fatal(err)
	}
	a, err := ReadOutput(path)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stamp.NProc == 0 || a.Stamp.GoVersion == "" || a.Stamp.Seed != 3 || a.Stamp.Scale.Name != "smoke" {
		t.Errorf("stamp incomplete: %+v", a.Stamp)
	}
	var report bytes.Buffer
	if outside, err := Compare(&report, a, a); err != nil || outside {
		t.Errorf("an output compared with itself: outside=%v err=%v\n%s", outside, err, report.String())
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Errorf("smoke run took %v; it has to stay under 10 s to live in tier-1", took)
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(value, spread float64) *Output {
		return &Output{
			Stamp: Stamp{NProc: 2, GOMAXPROCS: 2, Seed: 1, Scale: Smoke},
			Results: []Result{{Workload: TableReplay, Metrics: []Metric{
				{Name: "ingest_ops_per_s", Unit: "ops/s", Better: "higher", Bound: 0.10, Value: value, N: 7, Spread: spread},
				{Name: "peak_heap_mb", Unit: "MB", Better: "lower", Bound: 0.03, Value: 100, N: 7},
				{Name: "mrt.frame_ns_per_update", Unit: "ns", Better: "lower", Value: value, N: 1},
			}}},
		}
	}
	verdicts := func(a, b *Output) (string, bool) {
		var buf bytes.Buffer
		outside, err := Compare(&buf, a, b)
		if err != nil {
			t.Fatal(err)
		}
		return buf.String(), outside
	}
	// 5 % slower with a 10 % bound: within. Faster is never a regression.
	if rep, outside := verdicts(mk(1000, 0.01), mk(950, 0.01)); outside || strings.Contains(rep, "outside") {
		t.Errorf("5%% worse judged outside:\n%s", rep)
	}
	if _, outside := verdicts(mk(1000, 0.01), mk(2000, 0.01)); outside {
		t.Error("a twofold gain judged outside its bound")
	}
	// 20 % slower, quiet reps: outside, and the unbounded layer metric
	// that moved just as far is only reported.
	rep, outside := verdicts(mk(1000, 0.01), mk(800, 0.01))
	if !outside || !strings.Contains(rep, "outside") || !strings.Contains(rep, "reported") {
		t.Errorf("20%% worse not judged outside:\n%s", rep)
	}
	// 20 % slower, but one side's own reps scatter by 15 %: unresolved,
	// which does not fail the comparison.
	rep, outside = verdicts(mk(1000, 0.15), mk(800, 0.01))
	if outside || !strings.Contains(rep, "unresolved") {
		t.Errorf("noisy 20%% difference not judged unresolved:\n%s", rep)
	}
	// A void live run withheld its open-loop latencies: whatever the other
	// side measured, those rows are void, neither within nor outside.
	live := func(void bool) *Output {
		r := Result{Workload: LiveServe, Void: void, Metrics: []Metric{{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Value: 0.3, N: 3}}}
		if !void {
			r.Metrics = append(r.Metrics, Metric{Name: "event_latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1, Value: 0.5, N: 6})
		}
		return &Output{Stamp: Stamp{NProc: 2, GOMAXPROCS: 2, Seed: 1, Scale: Smoke}, Results: []Result{r}}
	}
	for _, pair := range [][2]bool{{false, true}, {true, false}, {true, true}} {
		rep, outside := verdicts(live(pair[0]), live(pair[1]))
		if outside || strings.Count(rep, "void\n") != len(openLoopMetrics) || !strings.Contains(rep, "within") {
			t.Errorf("void=%v: want a void row per open-loop latency and setup_s within, no outside:\n%s", pair, rep)
		}
	}
	// Different machines, scales or seeds are not comparable at all.
	other := mk(1000, 0.01)
	other.Stamp.NProc = 8
	if _, err := Compare(&bytes.Buffer{}, mk(1000, 0.01), other); err == nil {
		t.Error("outputs with different nproc were compared")
	}
	other = mk(1000, 0.01)
	other.Stamp.Seed = 2
	if _, err := Compare(&bytes.Buffer{}, mk(1000, 0.01), other); err == nil {
		t.Error("outputs with different seeds were compared")
	}
	other = mk(1000, 0.01)
	other.Stamp.Scale = Full
	if _, err := Compare(&bytes.Buffer{}, mk(1000, 0.01), other); err == nil {
		t.Error("outputs with different scales were compared")
	}
}
