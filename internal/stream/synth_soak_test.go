// Soak coverage: a synth flap storm — the nastiest recycling workload
// the generator produces — driven through Engine.Run via the file
// source, with the engine's arena accounting required to plateau. Lives
// in package stream_test because internal/synth sits above the engine.
package stream_test

import (
	"os"
	"testing"
	"time"

	"moas/internal/source"
	"moas/internal/stream"
	"moas/internal/synth"
)

// TestSynthFlapStormSoak: after a warmup third of the run, every
// storage-growth counter — route nodes carved, prefix-table entries
// carved, attrs handles carved, peers, interner bytes — must stay
// exactly flat while events keep accumulating: withdraw/re-announce
// cycles and flapping conflicts must run on recycled storage. The
// capped leg rolls the interner through SetCap epochs all run long, so
// routes keep arriving with fresh pointers for old blocks: handles must
// still be released by refcount and recycled (interner bytes saw-tooth
// under a cap by design, so that leg checks the epochs happened
// instead). Sized to seconds by default (the -race CI job runs it on
// every push); MOAS_SOAK=1 (`make soak`) runs the months-of-days version.
func TestSynthFlapStormSoak(t *testing.T) {
	t.Run("unbounded", func(t *testing.T) { soakFlapStorm(t, 0) })
	t.Run("capped", func(t *testing.T) { soakFlapStorm(t, 96) })
}

// soakFlapStorm caps the interner at capN; 0 leaves the default cap,
// which a soak run never reaches.
func soakFlapStorm(t *testing.T, capN int) {
	days, flap, churnPfx, cycles := 40, 64, 128, 4
	if os.Getenv("MOAS_SOAK") != "" {
		days, flap, churnPfx, cycles = 365, 128, 256, 6
	} else if testing.Short() {
		days = 12
	}
	gen, err := synth.NewStream(synth.Config{
		Seed:        7,
		Days:        days,
		Prefixes:    2048,
		Vantages:    4,
		ChurnPerDay: 256,
		Patterns:    []synth.Pattern{synth.FlapStorm(flap, churnPfx, cycles)},
	})
	if err != nil {
		t.Fatal(err)
	}

	e := stream.New(stream.Config{Shards: 4})
	defer e.Close()
	if capN > 0 {
		e.Interner().SetCap(capN)
	}

	type sample struct {
		day                                        int
		routeNodes, kernStates, attrHandles, peers int
		internerBytes                              int64
		events                                     int
	}
	var samples []sample
	// The generator is the transport: synth streams MRT bytes straight
	// into the file source, no archive on disk or in RAM.
	src := source.NewFileReader(gen, "synth-soak", e.Interner())
	err = e.Run(src, &stream.RunOptions{
		CloseFinalDay: true,
		// The archive is epoch-anchored; pin the wall clock to the epoch,
		// and never tick, so the idle day close can never outrun the data.
		Now:   func() uint32 { return 0 },
		Ticks: make(chan time.Time),
		OnDayClose: func(day int) {
			st := e.Stats()
			samples = append(samples, sample{day, st.RouteNodes, st.KernelStates, st.AttrHandles, st.Peers, st.InternerBytes, st.Events})
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	if len(samples) != days {
		t.Fatalf("%d day-close samples, want %d", len(samples), days)
	}
	warm := samples[len(samples)/3]
	last := samples[len(samples)-1]
	for _, s := range samples[len(samples)/3:] {
		if s.routeNodes > warm.routeNodes {
			t.Errorf("day %d: route nodes grew past warmup plateau: %d > %d", s.day, s.routeNodes, warm.routeNodes)
		}
		if s.kernStates > warm.kernStates {
			t.Errorf("day %d: kernel arena grew past warmup plateau: %d > %d", s.day, s.kernStates, warm.kernStates)
		}
		if s.attrHandles > warm.attrHandles {
			t.Errorf("day %d: attrs-handle table grew past warmup plateau: %d > %d", s.day, s.attrHandles, warm.attrHandles)
		}
		if s.peers > warm.peers {
			t.Errorf("day %d: peer table grew past warmup plateau: %d > %d", s.day, s.peers, warm.peers)
		}
		if capN == 0 && s.internerBytes > warm.internerBytes {
			t.Errorf("day %d: interner bytes grew past warmup plateau: %d > %d", s.day, s.internerBytes, warm.internerBytes)
		}
	}
	if last.events <= warm.events {
		t.Fatalf("events stopped: %d at warmup day %d, %d at day %d — the storm died",
			warm.events, warm.day, last.events, last.day)
	}
	st := e.Stats()
	if st.ActiveConflicts != 0 && st.TotalConflicts == 0 {
		t.Fatalf("degenerate soak: %+v", st)
	}
	if capN > 0 && st.InternerEpochs < 2 {
		t.Fatalf("capped leg saw %d interner epochs, want >= 2: the cap never rolled", st.InternerEpochs)
	}
	t.Logf("%d days, %d interner epochs: %d events on a plateau of %d route nodes, %d table entries, %d attrs handles, %d peers, %d interner bytes",
		days, st.InternerEpochs, last.events, warm.routeNodes, warm.kernStates, warm.attrHandles, warm.peers, warm.internerBytes)
}
