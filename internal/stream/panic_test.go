package stream

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"moas/internal/bgp"
	"moas/internal/source"
	"moas/internal/supervise"
)

// A panic in the apply path (here: the OnEvent subscriber, which runs
// on the shard worker) must not crash the process. The engine records
// the failure, the dead shard drains, Replay aborts with the captured
// panic, and the engine stays queryable and closable.
func TestReplayShardPanicContained(t *testing.T) {
	sc, archive, _ := fixtures(t)
	e := New(Config{
		Shards: 2,
		OnEvent: func(ev Event) {
			panic("subscriber exploded")
		},
	})
	defer e.Close()
	err := e.Replay(bytes.NewReader(archive), NewCalendar(sc.ObservedDays, sc.DayStamp), nil)
	if err == nil {
		t.Fatal("replay succeeded despite a panicking shard")
	}
	var pe *supervise.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("replay error %T %v, want *supervise.PanicError", err, err)
	}
	if pe.Name != "shard worker" || pe.Value != "subscriber exploded" {
		t.Fatalf("PanicError %+v", pe)
	}
	if err := e.Err(); !errors.As(err, &pe) {
		t.Fatalf("Engine.Err() = %v", err)
	}
	// The engine remains serving: queries and stats must not hang on a
	// lock the dead worker could have been holding.
	_ = e.Registry()
	_ = e.ActiveConflicts()
	_ = e.Stats()
	// Sync and Close must not deadlock on the draining shard.
	e.Sync()
	e.Close()
}

// panicSource blows up on its nth Next call.
type panicSource struct {
	n     int
	calls int
	inner *chanSource
}

func (s *panicSource) Next(rec *source.Record) error {
	s.calls++
	if s.calls >= s.n {
		panic("feed decoder exploded")
	}
	return s.inner.Next(rec)
}

func (s *panicSource) Buffered() bool        { return s.inner.Buffered() }
func (s *panicSource) Status() source.Status { return s.inner.Status() }
func (s *panicSource) Close() error          { return s.inner.Close() }

// A panicking live source must surface as the run's terminal error —
// one scenario failed, the process alive — not a crash.
func TestRunSourcePanicContained(t *testing.T) {
	src := &panicSource{n: 2, inner: newChanSource()}
	e := New(Config{Shards: 1})
	defer e.Close()
	runDone := make(chan error, 1)
	go func() { runDone <- e.Run(src, &RunOptions{Ticks: msTicks(t)}) }()

	p := bgp.MustParsePrefix("10.0.0.0/8")
	var rec source.Record
	rec.Seq, rec.TS, rec.PeerAS = 1, 13000*86400, 65001
	rec.Upd = bgp.Update{Attrs: &bgp.Attrs{
		Origin:  bgp.OriginIGP,
		ASPath:  bgp.Path{{Type: bgp.SegSequence, ASes: []bgp.ASN{65001}}},
		NextHop: [4]byte{192, 0, 2, 1},
	}, NLRI: []bgp.Prefix{p}}
	src.inner.ch <- rec // call 1 delivers; call 2 panics

	select {
	case err := <-runDone:
		var pe *supervise.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("run error %T %v, want *supervise.PanicError", err, err)
		}
		if pe.Name != "source puller" || pe.Value != "feed decoder exploded" {
			t.Fatalf("PanicError %+v", pe)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not return after source panic")
	}
	if got := e.Records(); got != 1 {
		t.Fatalf("Records()=%d, want 1 (the delivered record)", got)
	}
}
