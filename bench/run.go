package bench

import "fmt"

// Run executes one workload: its end-to-end phases with the correctness
// gate and, on a traced run, the per-layer measurements after them. The
// result is returned even when the gate found mismatches (Correct is
// then false); an error means the run could not be completed at all.
func Run(o Options) (*Result, error) {
	r := &Result{Workload: o.Workload}
	t := &tally{}
	var phases func(*Options, *Result, *tally) (*layerInput, error)
	switch o.Workload {
	case TableReplay, StormReplay:
		phases = runReplay
	case LiveServe:
		phases = runLive
	case CheckpointRecover:
		phases = runCheckpoint
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", o.Workload, Workloads)
	}
	in, err := phases(&o, r, t)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.Workload, err)
	}
	t.finish(r)
	if o.Trace {
		if err := runLayers(&o, in, r); err != nil {
			return nil, fmt.Errorf("%s: per-layer run: %w", o.Workload, err)
		}
	}
	return r, nil
}

// NewOutput stamps a set of results.
func NewOutput(o Options, results []Result) *Output {
	return &Output{Stamp: newStamp(o), Results: results}
}
