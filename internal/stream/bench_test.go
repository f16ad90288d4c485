package stream

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"moas/internal/bgp"
	"moas/internal/epilog"
	"moas/internal/ptable"
)

// benchCounts dedupes a candidate list of shard counts in place
// of the old hardcoded {1, 4, GOMAXPROCS} — on a single-core box that
// list emitted shards=1 twice, and benchstat reads the #01 duplicate
// rows as a second configuration.
func benchCounts(vals ...int) []int {
	var out []int
	for _, v := range vals {
		dup := false
		for _, o := range out {
			if o == v {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, v)
		}
	}
	return out
}

// BenchmarkStreamReplay measures full-archive replay throughput across
// shard counts. The custom updates/s metric is the trajectory
// number future PRs track (b.SetBytes additionally reports archive MB/s);
// allocs/update is the zero-alloc-ingest claim at replay granularity
// (whole-replay allocations — engine construction, interner misses,
// kernel state — amortized over the update count), and distinct-attrs is
// how many attribute blocks the interner actually deduplicated the
// archive onto.
func BenchmarkStreamReplay(b *testing.B) {
	sc, archive, _ := fixtures(b)
	cal := NewCalendar(sc.ObservedDays, sc.DayStamp)

	for _, shards := range benchCounts(1, 4, runtime.GOMAXPROCS(0)) {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.SetBytes(int64(len(archive)))
			b.ReportAllocs()
			var msgs uint64
			var distinct int
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := New(Config{Shards: shards})
				if err := e.Replay(bytes.NewReader(archive), cal, nil); err != nil {
					b.Fatal(err)
				}
				e.Close()
				msgs = e.Stats().Messages
				distinct = e.DistinctAttrs()
			}
			b.StopTimer()
			runtime.ReadMemStats(&m1)
			if total := msgs * uint64(b.N); total > 0 {
				b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(total), "allocs/update")
			}
			b.ReportMetric(float64(distinct), "distinct-attrs")
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(msgs)*float64(b.N)/sec, "updates/s")
			}
		})
	}
}

// BenchmarkStreamReplayEpilog is BenchmarkStreamReplay with the episode
// log enabled: every conflict lifecycle transition appends a durable
// record. The name shares the BenchmarkStreamReplay prefix so make
// bench picks it up, while the base benchmark's labels stay stable for
// the committed trend. Its updates/s and allocs/update must sit within
// noise of the plain replay — the episode path stages records in reused
// shard buffers and only touches the log when a lifecycle event
// actually fired, so the warm path is untouched.
// epilogBenchDirSeq makes episode-log directories unique across probe
// rounds and -count repetitions within one bench process.
var epilogBenchDirSeq atomic.Uint64

func BenchmarkStreamReplayEpilog(b *testing.B) {
	sc, archive, _ := fixtures(b)
	cal := NewCalendar(sc.ObservedDays, sc.DayStamp)
	dir := b.TempDir()

	for _, shards := range benchCounts(1, 4) {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.SetBytes(int64(len(archive)))
			b.ReportAllocs()
			var msgs, appended uint64
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// A process-unique directory per iteration: b.N probe rounds
				// and -count repetitions must never reopen an earlier
				// iteration's segments, or the reopen scan would inflate the
				// alloc metric with work replay never does.
				lg, err := epilog.Open(filepath.Join(dir, fmt.Sprintf("s%d-%d", shards, epilogBenchDirSeq.Add(1))), epilog.Options{})
				if err != nil {
					b.Fatal(err)
				}
				e := New(Config{Shards: shards, EpisodeLog: lg})
				if err := e.Replay(bytes.NewReader(archive), cal, nil); err != nil {
					b.Fatal(err)
				}
				e.Close()
				msgs = e.Stats().Messages
				appended = lg.Stats().Appended
				if err := lg.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&m1)
			if total := msgs * uint64(b.N); total > 0 {
				b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(total), "allocs/update")
			}
			b.ReportMetric(float64(appended), "episodes")
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(msgs)*float64(b.N)/sec, "updates/s")
			}
		})
	}
}

// BenchmarkDecodeUpdate runs DecodeUpdateBodyInto over a realistic mixed
// wire corpus with a reused Update and a warm interner — the replay
// decode stage's configuration, which must run at 0 allocs/op.
func BenchmarkDecodeUpdate(b *testing.B) {
	bodies := updateWireCorpus()
	var u bgp.Update
	in := new(bgp.AttrsInterner)
	for _, body := range bodies { // warm the interner
		if err := bgp.DecodeUpdateBodyInto(&u, body, in); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bgp.DecodeUpdateBodyInto(&u, bodies[i%len(bodies)], in); err != nil {
			b.Fatal(err)
		}
	}
}

// updateWireCorpus builds a spread of UPDATE message bodies: varying
// NLRI fan-out, withdrawals, and a few dozen distinct attribute blocks.
func updateWireCorpus() [][]byte {
	var bodies [][]byte
	for i := 0; i < 64; i++ {
		u := bgp.Update{
			Attrs: &bgp.Attrs{
				ASPath:  bgp.Seq(bgp.ASN(64000+i%4), 1239, bgp.ASN(64500+i%29)),
				NextHop: [4]byte{10, 0, byte(i), 1},
			},
		}
		for j := 0; j <= i%7; j++ {
			u.NLRI = append(u.NLRI, bgp.PrefixFromUint32(uint32(10<<24|i<<16|j<<8), 24))
		}
		if i%5 == 0 {
			u.Withdrawn = append(u.Withdrawn, bgp.PrefixFromUint32(uint32(172<<24|i<<8), 24))
		}
		msg := u.AppendWire(nil)
		bodies = append(bodies, msg[19:]) // strip the BGP header
	}
	return bodies
}

// Full-scan-scale checkpoint fixture for the codec benchmark and the
// allocation budget: tens of thousands of per-peer routes with a
// realistic MOAS fraction and some lifecycle churn, built once per test
// binary. The engine is closed (settled), so it can be imaged repeatedly.
const (
	bigPrefixes = 8192
	bigPeers    = 4
)

var (
	bigCkOnce sync.Once
	bigEng    *Engine
	bigCk     *Checkpoint
)

func bigCheckpoint(tb testing.TB) (*Engine, *Checkpoint) {
	bigCkOnce.Do(func() {
		e := New(Config{Shards: 4})
		ann := func(day, i, pe int, transit bgp.ASN) {
			p := bgp.PrefixFromUint32(uint32(10<<24|i<<8), 24)
			peer := PeerKey{IP: [16]byte{0, byte(pe + 1)}, AS: bgp.ASN(64000 + pe)}
			origin := bgp.ASN(64500 + i%97)
			if i%4 == 0 && pe == bigPeers-1 {
				origin = bgp.ASN(65000 + i%53) // a quarter of the table in MOAS
			}
			e.ApplyUpdate(day, peer, &bgp.Update{
				NLRI:  []bgp.Prefix{p},
				Attrs: &bgp.Attrs{ASPath: bgp.Seq(bgp.ASN(64000+pe), transit, origin)},
			})
		}
		for i := 0; i < bigPrefixes; i++ {
			for pe := 0; pe < bigPeers; pe++ {
				ann(0, i, pe, 1239)
			}
		}
		e.CloseDay(0)
		for i := 0; i < bigPrefixes; i += 8 { // day-1 churn: new transit, same origins
			ann(1, i, 0, 2914)
		}
		e.CloseDay(1)
		e.CloseDay(2)
		e.Close()
		bigEng, bigCk = e, e.Checkpoint()
	})
	return bigEng, bigCk
}

// BenchmarkCheckpointEncode times the checkpoint path at full-scan-scale
// state: imaging the engine (phase=snapshot, what parks ingest), encoding
// the image (codec=binary — encoded size via the bytes metric, MB/s via
// SetBytes) and rebuilding an engine from the image (phase=restore).
func BenchmarkCheckpointEncode(b *testing.B) {
	eng, ck := bigCheckpoint(b)
	rows := []struct {
		name string
		run  func() (size int64, err error)
	}{
		{"phase=snapshot", func() (int64, error) { eng.Checkpoint(); return 0, nil }},
		{"codec=binary", func() (int64, error) {
			out, err := AppendCheckpointBinary(nil, ck)
			return int64(len(out)), err
		}},
		{"phase=restore", func() (int64, error) {
			e, err := NewFromCheckpoint(Config{Shards: 4}, ck)
			if err == nil {
				e.Close()
			}
			return 0, err
		}},
	}
	for _, r := range rows {
		b.Run(r.name, func(b *testing.B) {
			var size int64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if size, err = r.run(); err != nil {
					b.Fatal(err)
				}
			}
			if size > 0 {
				b.SetBytes(size)
				b.ReportMetric(float64(size), "bytes")
			}
		})
	}
}

// BenchmarkShardReassess measures the per-op cost of the reassess hot
// path in its steady state: an active conflict whose routes churn without
// flipping the origin set (the overwhelmingly common case on a live
// feed). The origin-set recompute runs into the shard's reusable scratch,
// so allocs/op must be 0 — the regression this benchmark guards.
func BenchmarkShardReassess(b *testing.B) {
	s := newShard(nil, nil, nil)
	p := bgp.MustParsePrefix("10.0.0.0/8")
	const peerA, peerB = 0, 1 // peer-table indices (AS 701 and AS 3356)
	mk := func(day int32, peer uint32, path bgp.Path) op {
		return op{day: day, peer: peer, prefix: p, hash: uint32(ptable.Hash(p)), attrs: &bgp.Attrs{ASPath: path}}
	}
	// Establish a two-origin conflict (origins 7 and 9).
	s.apply([]op{
		mk(0, peerA, bgp.Seq(701, 9)),
		mk(0, peerB, bgp.Seq(3356, 7)),
	})
	// Steady-state churn: peerB flaps between two transit paths with the
	// same origin, so every op forces a full reassess that changes neither
	// the origin set nor the class.
	ops := []op{
		mk(1, peerB, bgp.Seq(3356, 1239, 7)),
		mk(1, peerB, bgp.Seq(3356, 2914, 7)),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.apply(ops)
	}
}
