// Command moasbench runs the served-pipeline benchmark (package bench):
//
//	moasbench -workload table-replay -seed 1            one workload
//	moasbench -workload all -seed 1 -outdir a           a full set, a/all-seed1.json
//	moasbench -workload storm-replay -trace 1           plus per-layer metrics and a trace file
//	moasbench -compare a.json b.json                    judge two outputs against the bounds
//
// The last line of standard output is the one-line JSON object the
// benchmark driver reads; everything above it is for people.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"moas/bench"
)

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "all", "table-replay, storm-replay, live-serve, checkpoint-recover or all")
	seed := flag.Int64("seed", 1, "generator seed; reaches only the input generators")
	seconds := flag.Int("seconds", 6, "time budget of a workload's timed phase")
	trace := flag.Int("trace", 0, "1 adds the traced per-layer run and writes trace-<workload>.json")
	scaleName := flag.String("scale", "full", "full or smoke")
	outDir := flag.String("outdir", filepath.Join("bench", "out"), "directory for temp files, trace-<workload>.json and the result file <workload>-seed<seed>[-trace].json")
	compare := flag.Bool("compare", false, "compare two result files given as arguments and exit")
	flag.Parse()

	if *compare {
		return compareFiles(flag.Args())
	}
	scale, err := bench.ScaleByName(*scaleName)
	if err != nil {
		return fail(err)
	}
	if *seconds < 1 {
		return fail(fmt.Errorf("-seconds %d: the timed phases need at least one second", *seconds))
	}
	names := []string{*workload}
	if *workload == "all" {
		names = bench.Workloads
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return fail(err)
	}
	root, err := os.MkdirTemp(*outDir, "tmp-")
	if err != nil {
		return fail(err)
	}
	// Every temp file lives under root; it goes away on success, on
	// failure and on an interrupt.
	defer os.RemoveAll(root)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		os.RemoveAll(root)
		os.Exit(130)
	}()

	opts := bench.Options{Seed: *seed, Seconds: *seconds, Trace: *trace != 0, Scale: scale,
		Root: root, TraceDir: *outDir, Log: os.Stderr}
	var results []bench.Result
	correct := true
	for _, name := range names {
		opts.Workload = name
		res, err := bench.Run(opts)
		if err != nil {
			return fail(err)
		}
		res.Print(os.Stdout)
		results = append(results, *res)
		correct = correct && res.Correct
	}
	suffix := ""
	if opts.Trace {
		suffix = "-trace"
	}
	path := filepath.Join(*outDir, fmt.Sprintf("%s-seed%d%s.json", *workload, *seed, suffix))
	opts.Workload = *workload
	if err := bench.NewOutput(opts, results).WriteFile(path); err != nil {
		return fail(err)
	}
	fmt.Fprintf(os.Stderr, "results written to %s\n", path)
	// The driver runs one workload at a time and reads the last line.
	fmt.Println(results[len(results)-1].DriverLine(opts.Trace))
	if !correct {
		fmt.Fprintln(os.Stderr, "moasbench: results differ from ground truth")
		return 1
	}
	return 0
}

func compareFiles(args []string) int {
	if len(args) != 2 {
		return fail(fmt.Errorf("-compare wants two result files, got %d arguments", len(args)))
	}
	a, err := bench.ReadOutput(args[0])
	if err != nil {
		return fail(err)
	}
	b, err := bench.ReadOutput(args[1])
	if err != nil {
		return fail(err)
	}
	outside, err := bench.Compare(os.Stdout, a, b)
	if err != nil {
		return fail(err)
	}
	if outside {
		return 1
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "moasbench:", err)
	return 2
}
