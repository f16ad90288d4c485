package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"moas/internal/bgp"
)

// setupRounds is how many times a run sets up. The issue's "written once"
// would do for the program; the driver's contract asks for several
// set-ups and their median, so that one slow disk flush does not decide
// setup_s.
const setupRounds = 3

// setUp builds the workload's input under a fresh directory and boots a
// daemon, setupRounds times over, records setup_s and returns the last
// round's input.
func setUp[T any](o *Options, r *Result, build func(dir string) (T, error)) (in T, err error) {
	var times []float64
	var dir string
	for i := 0; i < setupRounds; i++ {
		// Only the last round's files are used; the earlier ones would
		// just be dirty pages for the kernel to write back.
		os.RemoveAll(dir)
		t0 := time.Now()
		if dir, err = os.MkdirTemp(o.Root, "setup-"); err != nil {
			return in, err
		}
		if in, err = build(dir); err != nil {
			return in, err
		}
		st, err := boot(dir, false)
		if err != nil {
			return in, err
		}
		st.close()
		times = append(times, time.Since(t0).Seconds())
	}
	r.setMedian("setup_s", times)
	return in, nil
}

// replayPhase is the outcome of the timed MRT replays.
type replayPhase struct {
	walls []float64 // per timed rep, start to done, seconds
	ops   uint64    // route ops of one replay
	heap  []float64 // per timed rep, HeapInuse MB with the scenario resident
	// last is the final rep's daemon, left running with its finished
	// scenario (id lastID) resident for the read phase.
	last   *stack
	lastID string
}

// replayReps runs one discarded warm-up replay and then timed replays of
// the archive, each in a freshly booted daemon over a fresh directory,
// until maxReps are done or the -seconds budget is spent (but at least
// Scale.MinReps). Every rep passes the counts gate; the last rep also
// passes the episode-for-episode readback.
func replayReps(o *Options, a *archive, maxReps int, t *tally) (*replayPhase, error) {
	ph := &replayPhase{}
	budget := time.Duration(o.Seconds) * time.Second
	var phaseStart time.Time
	for rep := 0; ; rep++ {
		if rep == 1 {
			phaseStart = time.Now() // the warm-up is not measured
		}
		freeMemory()
		dir, err := os.MkdirTemp(o.Root, "rep-")
		if err != nil {
			return nil, err
		}
		st, err := boot(dir, false)
		if err != nil {
			return nil, err
		}
		id := fmt.Sprintf("rep%d", rep)
		wall, err := st.runMRT(id, a.Path)
		var stats statsDoc
		if err == nil {
			stats, err = st.checkCounts(id, a.Updates, a.Truth, true, t)
		}
		if err != nil {
			st.close()
			return nil, err
		}
		ph.ops = stats.Ops
		if rep > 0 {
			ph.walls = append(ph.walls, wall.Seconds())
			ph.heap = append(ph.heap, heapInuseMB())
		}
		o.logf("  rep %d: %v, %d updates, %d ops", rep, wall.Round(time.Millisecond), stats.Messages, stats.Ops)
		timed := len(ph.walls)
		if timed >= maxReps || (timed >= o.Scale.MinReps && time.Since(phaseStart) >= budget) {
			o.logf("  episode readback")
			if err := st.checkEpisodes(id, a.Truth, true, t); err != nil {
				st.close()
				return nil, err
			}
			ph.last, ph.lastID = st, id
			return ph, nil
		}
		st.close()
	}
}

// reportHeap records peak_heap_mb: HeapInuse with the scenario resident
// (one sample per rep) minus HeapInuse now that the caller has let the
// last scenario go — what is left is the benchmark's own state (the
// truth log alone is some 50 MB on storm-replay), not the program's.
func reportHeap(r *Result, resident []float64) {
	rest := heapInuseMB()
	held := make([]float64, len(resident))
	for i, h := range resident {
		held[i] = h - rest
	}
	r.setMedian("peak_heap_mb", held)
}

// reportIngest turns the timed replays' walls into the ingest metrics.
func (ph *replayPhase) reportIngest(r *Result, updates int) {
	var opsPerS, updPerS []float64
	for _, w := range ph.walls {
		opsPerS = append(opsPerS, float64(ph.ops)/w)
		updPerS = append(updPerS, float64(updates)/w)
	}
	r.setMedian("ingest_ops_per_s", opsPerS)
	r.setMedian("ingest_updates_per_s", updPerS)
}

// readPhase times storm-replay's read endpoints against the finished
// scenario, sequentially (a closed loop of one client). The endpoints
// take turns, so each one's samples span the whole phase and a burst of
// interference from the host costs every endpoint a sample instead of
// one endpoint its median: the judged range query every round, the two
// that are only listed every third (they fold the whole log, cost three
// times as much a request and decide nothing). from..to is the
// three-day window of the range query and prefix the one the
// per-prefix read asks about. Non-200 answers fail.
func readPhase(st *stack, id string, from, to int, prefix bgp.Prefix, rounds int, r *Result, t *tally) {
	// Start from a collected heap: what the gate's readback left behind
	// would otherwise be collected in the middle of the first rounds.
	runtime.GC()
	base := "/scenarios/" + id
	eps := []struct {
		metric, path string
		every        int
		lat          []float64
	}{
		{metric: "query_episodes_p50_ms", path: fmt.Sprintf("%s/episodes?from=%d&to=%d", base, from, to), every: 1},
		{metric: "serve.query_summary_p50_ms", path: base + "/episodes/summary", every: 3},
		{path: base + "/episodes?prefix=" + prefix.String(), every: 3},
	}
	for round := 0; round < rounds; round++ {
		for i := range eps {
			if round%eps[i].every != 0 {
				continue
			}
			v, err := st.timeGET(eps[i].path)
			t.check(err == nil, "%v", err)
			if err == nil {
				eps[i].lat = append(eps[i].lat, v)
			}
		}
	}
	for _, ep := range eps {
		if ep.metric != "" && len(ep.lat) > 0 {
			r.setLatency(ep.metric, ep.lat)
		}
	}
}

// runReplay is table-replay and storm-replay: the same phases over
// differently shaped archives.
func runReplay(o *Options, r *Result, t *tally) (*layerInput, error) {
	cfg := o.Scale.synthConfig(o.Workload, o.Seed)
	a, err := setUp(o, r, func(dir string) (*archive, error) {
		return writeSynthArchive(cfg, filepath.Join(dir, "updates.mrt"))
	})
	if err != nil {
		return nil, err
	}
	o.logf("%s: %d updates, %.1f MB, %d truth episodes", o.Workload, a.Updates, float64(a.Bytes)/1e6, len(a.Truth))

	reps := o.Scale.TableReps
	if o.Workload == StormReplay {
		reps = o.Scale.StormReps
	}
	ph, err := replayReps(o, a, reps, t)
	if err != nil {
		return nil, err
	}
	ph.reportIngest(r, a.Updates)
	if o.Workload == StormReplay {
		o.logf("  read phase")
		mid := a.Days / 2
		readPhase(ph.last, ph.lastID, mid, mid+2, a.Truth[len(a.Truth)/2].Prefix, o.Scale.Queries, r, t)
	}
	o.logf("  done")
	servedCounters(ph.last, ph.lastID, r)
	ph.last.close()
	reportHeap(r, ph.heap)
	return &layerInput{archive: a, truth: a.Truth, servedWall: median(ph.walls)}, nil
}

// servedCounters records what the resident scenario's episode log and
// event hub counted.
func servedCounters(st *stack, id string, r *Result) {
	sc := st.reg.Get(id)
	if sc == nil {
		return
	}
	if lg := sc.EpisodeLog(); lg != nil {
		ls := lg.Stats()
		r.set("epilog.appended", float64(ls.Appended))
		r.set("epilog.segments", float64(ls.Segments))
		r.set("epilog.compactions", float64(ls.Compactions))
		r.set("epilog.disk_mb", float64(ls.Bytes)/1e6)
	}
	hs := sc.Hub().Stats()
	r.set("serve.sse_published", float64(hs.Published))
	r.set("serve.sse_dropped", float64(hs.Dropped))
}
