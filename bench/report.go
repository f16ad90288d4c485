package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

// Metric is one measured value with what is needed to judge it: the
// sample count, the range, the run's own rep-to-rep spread and, for
// latency distributions, the highest tail percentile the sample
// supports.
type Metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	Value  float64 `json:"value"`
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	// Spread is the interquartile range of the samples as a share of
	// their median (the whole range below four samples, 0 for one).
	Spread float64 `json:"spread,omitempty"`
	// TailP/Tail: e.g. 99 and the p99 value; absent below 100 samples.
	TailP float64 `json:"tail_p,omitempty"`
	Tail  float64 `json:"tail,omitempty"`
}

// Stamp identifies what produced a result: two outputs are comparable
// only when nproc, GOMAXPROCS, scale and seed agree.
type Stamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Scale      Scale  `json:"scale"`
}

// Result is one workload's outcome.
type Result struct {
	Workload  string   `json:"workload"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"` // first few, for diagnosis
	// Void marks a live-serve run whose generator ran more than 5 ms
	// late: its open-loop latencies would describe the generator, not
	// the program, so none are recorded and -compare resolves none.
	Void    bool     `json:"void,omitempty"`
	Metrics []Metric `json:"metrics"`
}

// Output is one moasbench invocation's file: a stamp and one result per
// workload run.
type Output struct {
	Stamp   Stamp    `json:"stamp"`
	Results []Result `json:"results"`
}

func newStamp(o Options) Stamp {
	return Stamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		Commit:     gitCommit(),
		Seed:       o.Seed,
		Seconds:    o.Seconds,
		Trace:      o.Trace,
		Scale:      o.Scale,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// gitCommit asks git for HEAD without letting it search above the
// working directory; a checkout that is not itself a repository (the
// benchmark driver's) is stamped "unknown".
func gitCommit() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// set records a single observation.
func (r *Result) set(name string, v float64) { r.setSamples(name, v, []float64{v}) }

// setMedian records the median of per-rep samples.
func (r *Result) setMedian(name string, samples []float64) {
	r.setSamples(name, median(samples), samples)
}

// setLatency records a latency distribution: median, range and the
// highest percentile with at least ten samples beyond it.
func (r *Result) setLatency(name string, lat []float64) {
	m := r.setSamples(name, median(lat), lat)
	if p := tailPercentile(len(lat)); p > 0 {
		m.TailP, m.Tail = p, quantileSorted(sorted(lat), p/100)
	}
}

// setSamples records v as the metric's value with the samples' count,
// range and spread, replacing any earlier recording of the same name.
func (r *Result) setSamples(name string, v float64, samples []float64) *Metric {
	d := def(name)
	if !d.measuredOn(r.Workload) {
		panic("bench: " + r.Workload + " records " + name + ", which the catalog says it does not measure")
	}
	m := Metric{Name: name, Unit: d.Unit, Better: d.Better, Bound: d.Bound, Value: v, N: len(samples), Spread: iqrShare(samples)}
	if s := sorted(samples); len(s) > 0 {
		m.Min, m.Max = s[0], s[len(s)-1]
	}
	if old := r.metric(name); old != nil {
		*old = m
		return old
	}
	r.Metrics = append(r.Metrics, m)
	return &r.Metrics[len(r.Metrics)-1]
}

// metric returns the recorded metric of that name, nil when absent.
func (r *Result) metric(name string) *Metric {
	for i := range r.Metrics {
		if r.Metrics[i].Name == name {
			return &r.Metrics[i]
		}
	}
	return nil
}

// drop removes the named metrics from the result.
func (r *Result) drop(names []string) {
	r.Metrics = slices.DeleteFunc(r.Metrics, func(m Metric) bool { return slices.Contains(names, m.Name) })
}

// get returns a recorded metric's value, 0 when absent.
func (r *Result) get(name string) float64 {
	if m := r.metric(name); m != nil {
		return m.Value
	}
	return 0
}

// Print writes every metric by name with unit, sample count, range and
// bound, catalog order.
func (r *Result) Print(w io.Writer) {
	fmt.Fprintf(w, "workload %s: correct=%v attempted=%d failed=%d", r.Workload, r.Correct, r.Attempted, r.Failed)
	if r.Void {
		fmt.Fprint(w, " VOID (generator more than 5 ms late: no open-loop latencies)")
	}
	fmt.Fprintln(w)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
	for _, d := range Catalog {
		m := r.metric(d.Name)
		if m == nil {
			continue
		}
		fmt.Fprintf(w, "  %-34s %14.4f %-9s n=%-6d min=%.4f max=%.4f", m.Name, m.Value, m.Unit, m.N, m.Min, m.Max)
		if m.TailP > 0 {
			fmt.Fprintf(w, " p%g=%.4f", m.TailP, m.Tail)
		}
		if m.Bound > 0 {
			fmt.Fprintf(w, " bound=%g", m.Bound)
		}
		fmt.Fprintln(w)
	}
}

// DriverLine is the one-line JSON object the benchmark driver reads
// last: exactly BENCHMARK.json's end_to_end metrics with tracing off,
// exactly its per_layer set with tracing on (see Def.Driven; a metric
// the workload does not measure, or a void run withheld, reads 0).
func (r *Result) DriverLine(trace bool) string {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]val)
	for _, d := range Catalog {
		if d.Name == "failed_share" || d.Driven() == trace {
			continue
		}
		metrics[d.Name] = val{r.get(d.Name), d.Unit}
	}
	blob, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(blob)
}

// WriteFile stores the output as indented JSON.
func (o *Output) WriteFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(o, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// ReadOutput loads a file WriteFile produced.
func ReadOutput(path string) (*Output, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var o Output
	if err := json.Unmarshal(blob, &o); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &o, nil
}

// Compare prints, per workload and metric, both values, the relative
// difference (positive = b is worse) and the bound, and marks each row
// within, outside or unresolved — outside its bound, but one side's own
// rep-to-rep spread is wider than the bound, so the difference cannot
// be told from noise. An open-loop latency that a void run withheld on
// either side is a void row: nothing was compared, so it is neither
// within nor outside. It refuses outputs whose nproc,
// GOMAXPROCS, scale, seconds or seed differ, and reports whether any row
// was outside.
func Compare(w io.Writer, a, b *Output) (outside bool, err error) {
	sa, sb := a.Stamp, b.Stamp
	if sa.NProc != sb.NProc || sa.GOMAXPROCS != sb.GOMAXPROCS || sa.Scale != sb.Scale || sa.Seconds != sb.Seconds || sa.Seed != sb.Seed {
		return false, fmt.Errorf("outputs are not comparable: nproc %d/%d, GOMAXPROCS %d/%d, scale %s/%s, seconds %d/%d, seed %d/%d",
			sa.NProc, sb.NProc, sa.GOMAXPROCS, sb.GOMAXPROCS, sa.Scale.Name, sb.Scale.Name, sa.Seconds, sb.Seconds, sa.Seed, sb.Seed)
	}
	fmt.Fprintf(w, "%-19s %-34s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "worse by", "bound", "verdict")
	for _, ra := range a.Results {
		for _, rb := range b.Results {
			if ra.Workload != rb.Workload {
				continue
			}
			for _, d := range Catalog {
				ma, mb := ra.metric(d.Name), rb.metric(d.Name)
				switch {
				case ma != nil && mb != nil:
					worse, verdict := judge(*ma, *mb)
					outside = outside || verdict == "outside"
					fmt.Fprintf(w, "%-19s %-34s %14.4f %14.4f %+8.2f%% %7g  %s\n",
						ra.Workload, d.Name, ma.Value, mb.Value, 100*worse, ma.Bound, verdict)
				case (ra.Void || rb.Void) && slices.Contains(openLoopMetrics, d.Name):
					fmt.Fprintf(w, "%-19s %-34s %14s %14s %9s %7g  void\n",
						ra.Workload, d.Name, cell(ma), cell(mb), "", d.Bound)
				}
			}
		}
	}
	return outside, nil
}

// cell renders one side of a void row.
func cell(m *Metric) string {
	if m == nil {
		return "void"
	}
	return fmt.Sprintf("%.4f", m.Value)
}

// judge returns by how much b is worse than a, as a share of a, and the
// row's verdict.
func judge(a, b Metric) (worse float64, verdict string) {
	if a.Value != 0 {
		worse = (b.Value - a.Value) / a.Value
		if a.Better == "higher" {
			worse = -worse
		}
	}
	switch {
	case a.Bound == 0:
		return worse, "reported"
	case worse <= a.Bound:
		return worse, "within"
	case a.Spread > a.Bound || b.Spread > a.Bound:
		return worse, "unresolved"
	}
	return worse, "outside"
}
