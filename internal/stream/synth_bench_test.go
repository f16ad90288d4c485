// BenchmarkSynthReplay is the realistic-table stress benchmark the
// scenario-diversity roadmap item calls for: a synth-generated archive
// at one million background prefixes and the full 2-octet origin-AS
// pool, replayed end to end. BenchmarkStormReplay is its storm-shaped
// sibling. They live in package stream_test because internal/synth
// depends on nothing and the engine must not depend on its own stress
// generator.
package stream_test

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync/atomic"
	"testing"

	"moas/internal/epilog"
	"moas/internal/stream"
	"moas/internal/synth"
	"moas/internal/vfs"
)

// benchArchives holds each generated benchmark corpus, built once per
// process.
var benchArchives = map[string][]byte{}

// benchArchive generates cfg's archive, or returns the one generated
// under name before, with the calendar of its days.
func benchArchive(b *testing.B, name string, cfg synth.Config) ([]byte, stream.Calendar) {
	days := make([]int, cfg.Days)
	for d := range days {
		days[d] = d
	}
	cal := stream.NewCalendar(days, synth.DayTime)
	if a, ok := benchArchives[name]; ok {
		return a, cal
	}
	gen, err := synth.NewStream(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, gen); err != nil {
		b.Fatal(err)
	}
	benchArchives[name] = buf.Bytes()
	return buf.Bytes(), cal
}

// dedupeCounts removes duplicates from a candidate shard list so
// single-core boxes (where GOMAXPROCS collapses onto 1) don't emit the
// same sub-benchmark twice with a #01 suffix.
func dedupeCounts(vals ...int) []int {
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

// heapInuse returns the heap in use after two collections (the second
// reclaims what the first one's finalizers and sweep released).
func heapInuse() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapInuse
}

// replayShards runs body as one sub-benchmark at 1 and at GOMAXPROCS
// shards.
func replayShards(b *testing.B, body func(b *testing.B, shards int)) {
	for _, shards := range dedupeCounts(1, runtime.GOMAXPROCS(0)) {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			body(b, shards)
		})
	}
}

// BenchmarkSynthReplay reports the same trajectory metrics as
// BenchmarkStreamReplay (updates/s, allocs/update, distinct-attrs) on
// the internet-scale corpus (~1M prefixes, the maximum 16-bit origin
// pool, two vantages, four days with background churn and a mixed
// episode load) at 1 and GOMAXPROCS shards. The shards=N cell is the
// headline number: the full pipeline on an internet-scale table. resident-MB is what the last replay's engine
// retains — heap in use with the engine alive, over the heap before it
// was built — and bytes/prefix divides that by the prefix-table entries
// it holds; B/op over resident-MB is how much the engine allocates to
// retain a byte.
func BenchmarkSynthReplay(b *testing.B) {
	archive, cal := benchArchive(b, "table", synth.Config{
		Seed:     1,
		Days:     4,
		Prefixes: 1 << 20,
		ASes:     75000, // clamps to the wire ceiling of 60000
		Vantages: 2,
		Patterns: []synth.Pattern{
			synth.Anycast(256),
			synth.RouteLeak(256),
			synth.GradualHijack(256),
			synth.FlapStorm(128, 256, 2),
		},
	})
	replayShards(b, func(b *testing.B, shards int) {
		b.SetBytes(int64(len(archive)))
		b.ReportAllocs()
		var msgs uint64
		var distinct int
		var e *stream.Engine
		var m0, m1 runtime.MemStats
		base := heapInuse()
		runtime.ReadMemStats(&m0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e = stream.New(stream.Config{Shards: shards})
			if err := e.Replay(bytes.NewReader(archive), cal, nil); err != nil {
				b.Fatal(err)
			}
			e.Close()
			msgs = e.Stats().Messages
			distinct = e.DistinctAttrs()
		}
		b.StopTimer()
		runtime.ReadMemStats(&m1)
		resident := float64(heapInuse()) - float64(base)
		b.ReportMetric(resident/1e6, "resident-MB")
		if n := e.Stats().KernelStates; n > 0 {
			b.ReportMetric(resident/float64(n), "bytes/prefix")
		}
		if total := msgs * uint64(b.N); total > 0 {
			b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(total), "allocs/update")
		}
		b.ReportMetric(float64(distinct), "distinct-attrs")
		if sec := b.Elapsed().Seconds(); sec > 0 {
			b.ReportMetric(float64(msgs)*float64(b.N)/sec, "updates/s")
		}
	})
}

// BenchmarkStormReplay is the storm-shaped sibling of
// BenchmarkSynthReplay: moasbench's storm-replay corpus — a 16k-prefix
// table under a flap storm for 120 days, small enough to stay in cache,
// so per-update framing and decode weigh most — replayed with the
// daemon's engine settings (history capped at 256) at 1 and GOMAXPROCS
// shards.
func BenchmarkStormReplay(b *testing.B) {
	archive, cal := benchArchive(b, "storm", synth.Config{
		Seed:     1,
		Days:     120,
		Prefixes: 1 << 14,
		ASes:     60000,
		Vantages: 2,
		Patterns: []synth.Pattern{
			synth.Anycast(256),
			synth.RouteLeak(256),
			synth.GradualHijack(128),
			synth.FlapStorm(8192, 4096, 2),
		},
	})
	replayShards(b, func(b *testing.B, shards int) {
		b.SetBytes(int64(len(archive)))
		b.ReportAllocs()
		var msgs uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e := stream.New(stream.Config{Shards: shards, HistoryLimit: 256})
			if err := e.Replay(bytes.NewReader(archive), cal, nil); err != nil {
				b.Fatal(err)
			}
			e.Close()
			msgs = e.Stats().Messages
		}
		if sec := b.Elapsed().Seconds(); sec > 0 {
			b.ReportMetric(float64(msgs)*float64(b.N)/sec, "updates/s")
		}
	})
}

// BenchmarkStormReplayEpilog is BenchmarkStormReplay with an episode log
// attached: the storm's lifecycle events put the log's write path on the
// shards' apply path. episodes is what the log recorded, and
// writes/episode the Write calls made on its files per recorded episode —
// exact, and the same every run at a given shard count, because the
// shards' batches are.
func BenchmarkStormReplayEpilog(b *testing.B) {
	// BenchmarkStormReplay's corpus: the name shares its cache entry.
	archive, cal := benchArchive(b, "storm", synth.Config{
		Seed:     1,
		Days:     120,
		Prefixes: 1 << 14,
		ASes:     60000,
		Vantages: 2,
		Patterns: []synth.Pattern{
			synth.Anycast(256),
			synth.RouteLeak(256),
			synth.GradualHijack(128),
			synth.FlapStorm(8192, 4096, 2),
		},
	})
	for _, shards := range dedupeCounts(1, runtime.GOMAXPROCS(0)) {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.SetBytes(int64(len(archive)))
			b.ReportAllocs()
			var msgs, episodes uint64
			var writes int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fs := &countingFS{FS: vfs.OS{}}
				lg, err := epilog.Open(b.TempDir(), epilog.Options{FS: fs})
				if err != nil {
					b.Fatal(err)
				}
				e := stream.New(stream.Config{
					Shards: shards, HistoryLimit: 256, EpisodeLog: lg,
				})
				if err := e.Replay(bytes.NewReader(archive), cal, nil); err != nil {
					b.Fatal(err)
				}
				e.Close()
				msgs = e.Stats().Messages
				if err := lg.Close(); err != nil {
					b.Fatal(err)
				}
				episodes, writes = lg.Stats().Appended, fs.writes.Load()
			}
			b.ReportMetric(float64(episodes), "episodes")
			if episodes > 0 {
				b.ReportMetric(float64(writes)/float64(episodes), "writes/episode")
			}
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(msgs)*float64(b.N)/sec, "updates/s")
			}
		})
	}
}

// countingFS counts the Write calls made on the files it opens.
type countingFS struct {
	vfs.FS
	writes atomic.Int64
}

func (c *countingFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	return c.count(c.FS.OpenFile(name, flag, perm))
}

func (c *countingFS) CreateTemp(dir, pattern string) (vfs.File, error) {
	return c.count(c.FS.CreateTemp(dir, pattern))
}

func (c *countingFS) count(f vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return countingFile{f, &c.writes}, nil
}

type countingFile struct {
	vfs.File
	n *atomic.Int64
}

func (f countingFile) Write(p []byte) (int, error) {
	f.n.Add(1)
	return f.File.Write(p)
}
