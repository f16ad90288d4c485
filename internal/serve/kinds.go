package serve

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"moas/internal/bgp"
	"moas/internal/collector"
	"moas/internal/mrt"
	"moas/internal/scenario"
	"moas/internal/source"
	"moas/internal/source/bgpd"
	"moas/internal/source/rislive"
	"moas/internal/stream"
	"moas/internal/synth"
)

// Scenario source kinds.
const (
	// SourceSynth builds a synthetic scenario (internal/scenario) at the
	// configured scale and streams its derived update archive.
	SourceSynth = "synth"
	// SourceMRT replays an MRT BGP4MP file from disk; the calendar is
	// derived from the file's own record timestamps.
	SourceMRT = "mrt"
	// SourceCheckpoint restores a scenario from a ScenarioCheckpoint
	// (POST /scenarios/{id}/checkpoint's payload): the engine resumes
	// from the serialized kernel state and the replay picks the original
	// source back up mid-archive. It is a way to create a scenario, not a
	// kind of its own: the restored scenario has the checkpointed kind.
	SourceCheckpoint = "checkpoint"
	// SourceRISLive subscribes to a RIS Live-style JSON-over-websocket
	// feed (internal/source/rislive) and runs continuously: observation
	// days are absolute UTC days closed by the wall clock, and the client
	// reconnects through transport loss, surfacing gaps on the SSE hub.
	SourceRISLive = "rislive"
	// SourceBGP runs a minimal passive BGP speaker
	// (internal/source/bgpd): real peers TCP-dial in, OPEN/KEEPALIVE
	// negotiate a session, and their UPDATEs feed the engine live.
	SourceBGP = "bgp"
)

// sourceKind is everything that differs between scenario sources; no
// code outside the sourceKinds table branches on a kind.
type sourceKind struct {
	// owns names (as in the request JSON) the source-specific fields this
	// kind accepts; a request setting any other kind's field is refused.
	owns []string
	// check validates the kind's required fields, that the source is
	// reachable, and fills the kind's defaults. It runs on a create
	// request and on the config embedded in a checkpoint alike.
	check func(c *ScenarioConfig) error
	// defaultID derives the scenario ID when the request gave none.
	defaultID func(c *ScenarioConfig) string
	// describe names the source for the log.
	describe func(c *ScenarioConfig) string
	// Exactly one opener is set. A replay kind opens a finite archive
	// with its calendar; a live kind (no calendar, wall-clock day closes,
	// reconnect semantics) attaches a feed that interns through in and
	// reports delivery gaps to onGap.
	openArchive func(c *ScenarioConfig) (io.ReadCloser, stream.Calendar, error)
	openLive    func(c *ScenarioConfig, in *bgp.AttrsInterner, onGap func(source.Gap)) (source.Source, error)
}

func (k *sourceKind) live() bool { return k.openLive != nil }

var sourceKinds = map[string]*sourceKind{
	SourceSynth: {
		owns: []string{"scale"},
		check: func(c *ScenarioConfig) error {
			if c.Scale == "" {
				c.Scale = "small"
			}
			if synthScales[c.Scale] == nil {
				return fmt.Errorf("unknown scale %q (want small, full or stress)", c.Scale)
			}
			return nil
		},
		defaultID:   func(c *ScenarioConfig) string { return c.Scale },
		describe:    func(c *ScenarioConfig) string { return "synth scale " + c.Scale },
		openArchive: func(c *ScenarioConfig) (io.ReadCloser, stream.Calendar, error) { return synthScales[c.Scale]() },
	},
	SourceMRT: {
		owns: []string{"path"},
		check: func(c *ScenarioConfig) error {
			if c.Path == "" {
				return errors.New(`source "mrt" requires "path"`)
			}
			// Restoring too: the file must still be reachable to resume
			// mid-archive.
			if fi, err := os.Stat(c.Path); err != nil {
				return fmt.Errorf("mrt path: %w", err)
			} else if fi.IsDir() {
				return fmt.Errorf("mrt path %s is a directory", c.Path)
			}
			return nil
		},
		defaultID: func(c *ScenarioConfig) string {
			base := strings.TrimSuffix(filepath.Base(c.Path), ".gz")
			if id := cleanID(strings.TrimSuffix(base, filepath.Ext(base))); id != "" && validateID(id) == nil {
				return id
			}
			return SourceMRT
		},
		describe: func(c *ScenarioConfig) string { return "mrt file " + c.Path },
		openArchive: func(c *ScenarioConfig) (io.ReadCloser, stream.Calendar, error) {
			f, err := mrt.Open(c.Path)
			if err != nil {
				return nil, stream.Calendar{}, err
			}
			cal, err := stream.ArchiveCalendar(f)
			f.Close()
			if err != nil {
				return nil, stream.Calendar{}, err
			}
			f, err = mrt.Open(c.Path)
			return f, cal, err
		},
	},
	SourceRISLive: {
		owns: []string{"url"},
		check: func(c *ScenarioConfig) error {
			if c.URL == "" {
				return errors.New(`source "rislive" requires "url"`)
			}
			if !strings.HasPrefix(c.URL, "ws://") {
				return fmt.Errorf(`rislive url %q: only ws:// endpoints are supported`, c.URL)
			}
			return nil
		},
		defaultID: func(*ScenarioConfig) string { return SourceRISLive },
		describe:  func(c *ScenarioConfig) string { return "ris live feed " + c.URL },
		// A live feed cannot be seeked; a restored scenario keeps the
		// engine state and simply reconnects, counting what it lost
		// across the outage as a gap.
		openLive: func(c *ScenarioConfig, in *bgp.AttrsInterner, onGap func(source.Gap)) (source.Source, error) {
			return rislive.Dial(rislive.Config{URL: c.URL, Interner: in, OnGap: onGap})
		},
	},
	SourceBGP: {
		owns: []string{"listen", "local_as"},
		check: func(c *ScenarioConfig) error {
			if c.Listen == "" {
				return errors.New(`source "bgp" requires "listen"`)
			}
			if c.LocalAS == 0 {
				c.LocalAS = 64512
			}
			return nil
		},
		defaultID: func(*ScenarioConfig) string { return SourceBGP },
		describe:  func(c *ScenarioConfig) string { return "bgp speaker on " + c.Listen },
		openLive: func(c *ScenarioConfig, in *bgp.AttrsInterner, onGap func(source.Gap)) (source.Source, error) {
			return bgpd.Listen(bgpd.Config{
				Addr:     c.Listen,
				LocalAS:  bgp.ASN(c.LocalAS),
				BGPID:    [4]byte{192, 0, 2, 1},
				Interner: in,
				OnGap:    onGap,
			})
		},
	},
}

// ScaleStress is the synth scale that bypasses the scenario pipeline:
// the internal/synth generator streams an internet-scale UPDATE archive
// (~1M background prefixes, the full 2-octet origin pool, mixed episode
// patterns) straight into the engine. It is the served entry point for
// the standing stress workload — the table never materializes.
const ScaleStress = "stress"

// synthScales opens the synthesized archive of each scale.
var synthScales = map[string]func() (io.ReadCloser, stream.Calendar, error){
	"small":     func() (io.ReadCloser, stream.Calendar, error) { return openScenario(scenario.TestSpec()) },
	"full":      func() (io.ReadCloser, stream.Calendar, error) { return openScenario(scenario.DefaultSpec()) },
	ScaleStress: openStress,
}

// openScenario builds the scenario of a spec and streams its derived
// update archive.
func openScenario(spec scenario.Spec) (io.ReadCloser, stream.Calendar, error) {
	sc, err := scenario.Build(spec)
	if err != nil {
		return nil, stream.Calendar{}, fmt.Errorf("build scenario: %w", err)
	}
	// An io.Pipe keeps memory flat: the archive is generated day by day
	// and never materializes, even at full scale. The replay closes the
	// read end on every exit, which unblocks the writer goroutine when a
	// stop aborts it mid-pipe.
	pr, pw := io.Pipe()
	go func() {
		pw.CloseWithError(collector.WriteUpdateArchive(pw, sc))
	}()
	return pr, stream.NewCalendar(sc.ObservedDays, sc.DayStamp), nil
}

// openStress streams the fixed workload behind ScaleStress. The
// generator is the source: synth streams MRT bytes on demand, so even
// the million-prefix table is never held. Seeded, so two stress
// scenarios replay identical bytes.
func openStress() (io.ReadCloser, stream.Calendar, error) {
	gen, err := synth.NewStream(synth.Config{
		Seed:     1,
		Days:     6,
		Prefixes: 1 << 20,
		ASes:     60000,
		Vantages: 2,
		Patterns: []synth.Pattern{
			synth.Anycast(256),
			synth.RouteLeak(256),
			synth.GradualHijack(128),
			synth.FlapStorm(128, 256, 2),
		},
	})
	if err != nil {
		return nil, stream.Calendar{}, fmt.Errorf("build stress stream: %w", err)
	}
	days := make([]int, gen.Days())
	for d := range days {
		days[d] = d
	}
	return io.NopCloser(gen), stream.NewCalendar(days, synth.DayTime), nil
}
