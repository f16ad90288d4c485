package bench

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"moas/internal/stream"
)

const (
	controlID = "control"
	victimID  = "victim"
	// ckptMidDay is how many days the paced replay must have closed
	// before the first checkpoint: the whole table is resident, and
	// enough of the archive is left that the replay is still running
	// when the last checkpoint returns.
	ckptMidDay = 1
)

// watchParked samples the engine's parked flag every millisecond until
// the returned function is called, which reports how long the replay
// was seen parked: first to last sighting.
func watchParked(eng *stream.Engine) (stop func() time.Duration) {
	done := make(chan struct{})
	seen := make(chan time.Duration)
	go func() {
		var first, last time.Time
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				seen <- last.Sub(first)
				return
			case now := <-tick.C:
				if eng.Parked() {
					if first.IsZero() {
						first = now
					}
					last = now
				}
			}
		}
	}()
	return func() time.Duration {
		close(done)
		return <-seen
	}
}

// more reports whether rep i of the checkpoint or the recovery phase,
// begun at phase, is still to be taken: two always, further ones up to
// Scale.CkptReps while the phase is younger than `budgets` times
// -seconds. The budgets (three for the checkpoints, two for the
// recoveries) admit the third rep on a host at its usual speed; one
// running a tenth slower stops at two, which keeps the sum of the
// driver's runs inside its time cap.
func more(i int, phase time.Time, budgets int, o *Options) bool {
	return i < 2 || (i < o.Scale.CkptReps && time.Since(phase) < time.Duration(budgets*o.Seconds)*time.Second)
}

// runCheckpoint is checkpoint-recover: the table archive replays paced,
// so it is still running mid-archive while the daemon checkpoints it
// up to Scale.CkptReps times over; the daemon is then killed and recovered
// from disk as often, the last recovery finishes the replay, and the
// result must equal an uninterrupted control run.
func runCheckpoint(o *Options, r *Result, t *tally) (*layerInput, error) {
	sc := o.Scale
	cfg := sc.synthConfig(o.Workload, o.Seed)
	a, err := setUp(o, r, func(dir string) (*archive, error) {
		return writeSynthArchive(cfg, filepath.Join(dir, "updates.mrt"))
	})
	if err != nil {
		return nil, err
	}
	o.logf("%s: %d updates, %.1f MB, %d truth episodes", o.Workload, a.Updates, float64(a.Bytes)/1e6, len(a.Truth))

	// st is the daemon in use: the victim's, then each recovery's, then
	// the control run's. Whichever is running when the function returns
	// is closed here.
	var st *stack
	defer func() {
		if st != nil {
			st.close()
		}
	}()

	// The victim: paced, durability on.
	freeMemory()
	dir, err := os.MkdirTemp(o.Root, "victim-")
	if err != nil {
		return nil, err
	}
	if st, err = boot(dir, true); err != nil {
		return nil, err
	}
	create := map[string]any{"id": victimID, "source": "mrt", "path": a.Path, "days_per_sec": sc.CkptDaysPerSec}
	if _, err := st.must("POST", "/scenarios", create, http.StatusCreated); err != nil {
		return nil, err
	}
	if _, err := st.must("POST", "/scenarios/"+victimID+"/start", nil, http.StatusOK); err != nil {
		return nil, err
	}
	if _, err := st.waitFor(victimID, replayTimeout, "closed table day", func(s *scenarioStatus) bool { return s.ClosedDays >= ckptMidDay }); err != nil {
		return nil, err
	}

	// The checkpoints: Registry.CheckpointNow is the whole durable write
	// moasd performs (Scenario.AutoCheckpoint, encode, write, fsync,
	// rename); how long it keeps ingest parked is read off the engine
	// while it runs. A park request cuts the pacing sleep short, so the
	// replay moves on by a day or two behind every checkpoint; the pace
	// and the archive's length leave room for that (see Scale).
	var parks, totals, sizes []float64
	for i, phase := 0, time.Now(); more(i, phase, 3, o); i++ {
		parked := watchParked(st.reg.Get(victimID).Engine())
		t0 := time.Now()
		path, err := st.reg.CheckpointNow(victimID)
		total := time.Since(t0)
		park := parked()
		if err != nil {
			return nil, fmt.Errorf("CheckpointNow: %w", err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		var s scenarioStatus
		if err := st.getJSON("/scenarios/"+victimID, &s); err != nil {
			return nil, err
		}
		t.check(s.State == "running", "checkpoint %d left the scenario %s at %d/%d days, not running mid-archive", i, s.State, s.ClosedDays, s.TotalDays)
		t.check(park > 0, "checkpoint %d: the replay was never seen parked", i)
		parks, totals, sizes = append(parks, ms(park)), append(totals, ms(total)), append(sizes, float64(fi.Size())/1e6)
		o.logf("  checkpoint %d: parked %v, total %v, %.1f MB, at day %d/%d", i, park.Round(time.Millisecond), total.Round(time.Millisecond), float64(fi.Size())/1e6, s.ClosedDays, s.TotalDays)
	}
	r.setMedian("checkpoint_park_ms", parks)
	r.setMedian("checkpoint_total_ms", totals)
	r.setMedian("checkpoint_mb", sizes)

	// The crash image: what a kill -9 at this instant would leave on
	// disk — the checkpoint files and the episode log, which the still
	// running replay may be appending to as it is copied. The original
	// is then disposed of without the final checkpoint a graceful close
	// would write, and every recovery boots a fresh daemon over a fresh
	// copy of the image, because a recovered replay appends to its log.
	image, err := os.MkdirTemp(o.Root, "crash-")
	if err != nil {
		return nil, err
	}
	if err := os.CopyFS(image, os.DirFS(dir)); err != nil {
		return nil, fmt.Errorf("crash image: %w", err)
	}
	st.drop(victimID)
	st = nil
	var recoveries []float64
	for i, phase := 0, time.Now(); more(i, phase, 2, o); i++ {
		if st != nil {
			st.drop(victimID)
			st = nil
		}
		freeMemory()
		dir := filepath.Join(o.Root, fmt.Sprintf("recovery-%d", i))
		if err := os.CopyFS(dir, os.DirFS(image)); err != nil {
			return nil, fmt.Errorf("crash image: %w", err)
		}
		if st, err = boot(dir, true); err != nil {
			return nil, err
		}
		t0 := time.Now()
		n, err := st.reg.Recover()
		if err != nil || n != 1 {
			return nil, fmt.Errorf("Recover: %d scenarios, %v", n, err)
		}
		_, err = st.must("GET", "/scenarios/"+victimID+"/conflicts?limit=1", nil, http.StatusOK)
		recoveries = append(recoveries, time.Since(t0).Seconds())
		t.check(err == nil, "first query after recovery %d: %v", i, err)
		o.logf("  recovery %d: %.2fs", i, recoveries[i])
	}
	r.setMedian("recover_s", recoveries)

	// The last recovery finishes the archive and is held to the truth log.
	o.logf("  finishing the recovered replay")
	if _, err := st.waitFor(victimID, replayTimeout, "done", isDone); err != nil {
		return nil, err
	}
	if _, err := st.checkCounts(victimID, a.Updates, a.Truth, true, t); err != nil {
		return nil, err
	}
	if err := st.checkEpisodes(victimID, a.Truth, true, t); err != nil {
		return nil, err
	}
	o.logf("  recovered replay done and checked")
	recovered := registryRows(st.reg.Get(victimID).Engine().Registry())
	resident := heapInuseMB()
	servedCounters(st, victimID, r)
	st.drop(victimID)
	st = nil
	reportHeap(r, []float64{resident})

	// The uninterrupted control, last so that it runs in a warmed-up
	// process like table-replay's timed reps: its registry is what
	// recovery had to reproduce, its wall this workload's ingest rate
	// (one sample: a second control would cost every run three seconds
	// of the driver's time cap).
	freeMemory()
	if dir, err = os.MkdirTemp(o.Root, "control-"); err != nil {
		return nil, err
	}
	if st, err = boot(dir, false); err != nil {
		return nil, err
	}
	wall, err := st.runMRT(controlID, a.Path)
	if err != nil {
		return nil, err
	}
	stats, err := st.checkCounts(controlID, a.Updates, a.Truth, true, t)
	if err != nil {
		return nil, err
	}
	o.logf("  control: %v", wall.Round(time.Millisecond))
	checkRegistry(recovered, registryRows(st.reg.Get(controlID).Engine().Registry()), t)
	(&replayPhase{walls: []float64{wall.Seconds()}, ops: stats.Ops}).reportIngest(r, a.Updates)
	return &layerInput{archive: a, truth: a.Truth}, nil
}
