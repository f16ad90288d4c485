// Command moasd is the live MOAS detection daemon. One process hosts any
// number of concurrent scenarios — synthesized archives, real MRT BGP4MP
// files, or live feeds (a RIS Live-style websocket subscription, or a
// passive BGP speaker real peers dial into) — each streamed through its
// own sharded detection engine and served over an HTTP/JSON API with
// scenario-id routing and an SSE event stream (see docs/API.md for the
// full reference). SIGINT/SIGTERM shut down gracefully: live sources
// close their transports (the speaker sends NOTIFICATION cease), and
// with durability on every scenario is checkpointed one last time.
//
//	# start empty, manage scenarios over HTTP:
//	moasd
//	curl -X POST localhost:8643/scenarios -d '{"id":"live","source":"synth","scale":"small","start":true}'
//
//	# or boot with scenarios from flags:
//	moasd -scenario small -days-per-sec 4
//	moasd -mrt updates.mrt.gz
//	moasd -rislive ws://ris-live.example.net/v1/ws/
//	moasd -bgp-listen :1790
//	curl localhost:8643/scenarios
//	curl localhost:8643/scenarios/small/conflicts?limit=5
//	curl -N localhost:8643/scenarios/small/events
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registered on DefaultServeMux, served by -pprof only
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"moas/internal/serve"
)

func main() {
	var (
		listen    = flag.String("listen", ":8643", "HTTP listen address")
		scale     = flag.String("scenario", "", `create and start a synthesized scenario at this scale: "small" (two months) or "full" (the paper's 1279 days)`)
		mrtPath   = flag.String("mrt", "", "create and start a scenario replaying this MRT BGP4MP file (plain or gzipped)")
		risURL    = flag.String("rislive", "", "create and start a live scenario subscribed to this RIS Live-style ws:// feed")
		bgpListen = flag.String("bgp-listen", "", "create and start a live scenario running a passive BGP speaker on this TCP address (e.g. :179)")
		bgpAS     = flag.Uint("bgp-as", 64512, "local AS the BGP speaker answers OPEN with")
		shards    = flag.Int("shards", runtime.GOMAXPROCS(0), "prefix-space worker shards per scenario")
		rate      = flag.Float64("days-per-sec", 0, "replay pacing in observed days per second (0 = as fast as possible)")
		history   = flag.Int("history", 256, "lifecycle events retained per prefix (0 or -1 = unlimited)")
		maxScen   = flag.Int("max-scenarios", 0, "maximum concurrently hosted scenarios; further creates get 429 (0 = unlimited)")
		maxSubs   = flag.Int("max-subscribers", 0, "maximum SSE subscribers per scenario; further subscribes get 429 (0 = unlimited)")
		ringSize  = flag.Int("event-ring", serve.DefaultEventRing, "per-scenario resume buffer: events a reconnecting SSE client can catch up on via Last-Event-ID")
		ckptDir   = flag.String("checkpoint-dir", "", "root directory for periodic per-scenario auto-checkpoints; scanned at boot to recover scenarios after a crash (empty = durability off)")
		ckptInt   = flag.Duration("checkpoint-interval", serve.DefaultCheckpointInterval, "auto-checkpoint period per scenario")
		ckptKeep  = flag.Int("checkpoint-keep", serve.DefaultCheckpointKeep, "checkpoint files retained per scenario (rotation depth)")
		epiDir    = flag.String("episode-log-dir", "", "root directory for per-scenario append-only episode logs, the durable store behind GET /scenarios/{id}/episodes; recovered at boot alongside checkpoints (empty = episode history off)")
		restarts  = flag.String("restart-policy", "", `supervised restart for failed scenarios: "on" (default cap of `+fmt.Sprint(serve.DefaultRestartMax)+` consecutive restarts), an integer cap, or empty/"off" to leave failed scenarios failed. Requires -checkpoint-dir: a restart resumes from the newest on-disk checkpoint`)
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this side listener (e.g. localhost:6060); empty disables it. Keep it off public interfaces — profiles expose internals and the endpoint has no auth")
	)
	flag.Parse()

	restartPolicy, err := parseRestartPolicy(*restarts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "moasd: %v\n", err)
		os.Exit(2)
	}
	if restartPolicy.Enabled && *ckptDir == "" {
		fmt.Fprintln(os.Stderr, "moasd: -restart-policy requires -checkpoint-dir (a restart resumes from the newest checkpoint)")
		os.Exit(2)
	}

	// Profiling rides a separate listener so production replay hotspots
	// (decode stage, shard workers, checkpoint encodes) are diagnosable
	// without exposing pprof on the public API address.
	if *pprofAddr != "" {
		go func() {
			log.Printf("pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("moasd: pprof listener: %v", err)
			}
		}()
	}

	reg := serve.NewRegistry()
	reg.Logf = log.Printf
	reg.Limits = serve.Limits{
		MaxScenarios:   *maxScen,
		MaxSubscribers: *maxSubs,
		EventRing:      *ringSize,
	}
	reg.Durability = serve.Durability{Dir: *ckptDir, Interval: *ckptInt, Keep: *ckptKeep}
	// Before Recover: recovered scenarios reopen their episode logs and
	// keep appending where the previous process stopped.
	reg.EpisodeDir = *epiDir
	reg.RestartPolicy = restartPolicy

	// Crash recovery happens before the boot flags, so a restarted daemon
	// resumes exactly where the auto-checkpoints left it — and a boot
	// flag naming an already-recovered scenario is a no-op, not an error.
	recovered, err := reg.Recover()
	if err != nil {
		fmt.Fprintf(os.Stderr, "moasd: %v\n", err)
		os.Exit(2)
	}
	if recovered > 0 {
		log.Printf("recovered %d scenario(s) from %s", recovered, *ckptDir)
	}

	boot := func(cfg serve.ScenarioConfig) {
		// Pin the derived ID: a recovered scenario with the same name must
		// collide (and be skipped below), not auto-suffix a duplicate.
		cfg.ID = cfg.DefaultID()
		cfg.Shards = *shards
		if cfg.Source != serve.SourceRISLive && cfg.Source != serve.SourceBGP {
			// Pacing is a replay knob; live feeds run at feed speed and
			// the config rejects the combination.
			cfg.DaysPerSec = *rate
		}
		cfg.History = *history
		if *history == 0 {
			// PR 1's flag used 0 for unlimited; keep that meaning (the
			// serve config uses 0 for "daemon default").
			cfg.History = -1
		}
		s, err := reg.Create(cfg)
		if errors.Is(err, serve.ErrScenarioExists) {
			log.Printf("moasd: %v (already recovered from checkpoint; skipping boot flag)", err)
			return
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "moasd: %v\n", err)
			os.Exit(2)
		}
		if err := s.Start(); err != nil {
			fmt.Fprintf(os.Stderr, "moasd: %v\n", err)
			os.Exit(2)
		}
	}
	if *scale != "" {
		boot(serve.ScenarioConfig{Source: serve.SourceSynth, Scale: *scale})
	}
	if *mrtPath != "" {
		boot(serve.ScenarioConfig{Source: serve.SourceMRT, Path: *mrtPath})
	}
	if *risURL != "" {
		boot(serve.ScenarioConfig{Source: serve.SourceRISLive, URL: *risURL})
	}
	if *bgpListen != "" {
		boot(serve.ScenarioConfig{Source: serve.SourceBGP, Listen: *bgpListen, LocalAS: uint32(*bgpAS)})
	}

	srv := &http.Server{Addr: *listen, Handler: serve.NewHandler(reg)}
	errCh := make(chan error, 1)
	go func() {
		log.Printf("moasd listening on %s (%d scenarios at boot; POST /scenarios to add more)",
			*listen, len(reg.List()))
		errCh <- srv.ListenAndServe()
	}()

	// Graceful shutdown: stop accepting HTTP, then tear the scenarios
	// down — live sources close their transports (BGP NOTIFICATION cease,
	// websocket close) and, with durability on, Registry.Close writes one
	// final checkpoint per scenario so the next boot's Recover resumes
	// from the moment of the signal.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		log.Fatalf("moasd: %v", err)
	case s := <-sig:
		log.Printf("moasd: %v: shutting down", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("moasd: http shutdown: %v", err)
		}
		cancel()
		// Snapshot health before Close tears the scenarios down, so the
		// exit code tells supervisors whether the process was degraded at
		// the moment it was asked to stop.
		code := exitCode(reg)
		reg.Close()
		log.Printf("moasd: shutdown complete")
		os.Exit(code)
	}
}

// parseRestartPolicy maps the -restart-policy flag value: empty/"off"
// disables, "on" enables with the default crash-loop cap, an integer
// enables with that cap.
func parseRestartPolicy(v string) (serve.RestartPolicy, error) {
	switch v {
	case "", "off":
		return serve.RestartPolicy{}, nil
	case "on":
		return serve.RestartPolicy{Enabled: true}, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		return serve.RestartPolicy{}, fmt.Errorf(`-restart-policy %q: want "on", "off" or a positive restart cap`, v)
	}
	return serve.RestartPolicy{Enabled: true, Max: n}, nil
}

// exitCode maps the registry's aggregate health to the process exit
// status: 0 all healthy, 3 at least one scenario degraded, 4 at least
// one failed (failed wins). Nonzero-but-distinct codes let a process
// supervisor tell "clean" from "limping" from "broken" at a glance.
func exitCode(reg *serve.Registry) int {
	code := 0
	for _, s := range reg.List() {
		h := s.Health()
		switch {
		case !h.Supervisor.OK:
			code = 4
		case !h.OK && code < 3:
			code = 3
		}
	}
	return code
}
