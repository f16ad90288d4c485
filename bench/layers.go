package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"moas/internal/bgp"
	"moas/internal/epilog"
	"moas/internal/kernel"
	"moas/internal/mrt"
	"moas/internal/serve"
	"moas/internal/source"
	"moas/internal/source/bgpd"
	"moas/internal/source/rislive"
	"moas/internal/stream"
	"moas/internal/synth"
)

// layerInput is what a workload's end-to-end phases hand to the traced
// per-layer measurements.
type layerInput struct {
	archive *archive        // the bytes the composition walks
	truth   []synth.Episode // the script for the standalone kernel and log
	// servedWall is the median served start-to-done wall in seconds (0
	// when the workload has no plain served MRT replay).
	servedWall float64
}

// chunkRecords is the composition's unit of work and the granularity of
// its spans: big enough that two clock reads per layer per chunk cost
// nothing, small enough that the decoded updates stay in cache between
// the decode and the apply loop.
const chunkRecords = 1024

// engineConfig is the engine configuration serve gives a replay
// scenario, minus the hub and the episode log.
func engineConfig(shards, workers int) stream.Config {
	return stream.Config{Shards: shards, DecodeWorkers: workers, HistoryLimit: 256, DisableEventLog: true}
}

// composed is the outcome of one pass of the serial composition.
type composed struct {
	wall      time.Duration
	updates   int
	withAttrs int
	stats     stream.Stats
	distinct  int
	internMB  float64
}

// compose is the serial ingest path put together from the layers'
// public functions, the way stream's decode stage and apply loop do it
// internally: frame a chunk of records (mrt), decode them into updates
// with interned attributes (bgp), apply them to a one-shard engine and
// wait for it to settle (stream). tr records one span per chunk per
// layer; nil runs the identical code untraced.
func compose(path string, cal stream.Calendar, tr *tracer) (*composed, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fr := mrt.NewFramer(f)
	in := bgp.NewAttrsInterner(false)
	eng := stream.New(engineConfig(1, 1))
	defer eng.Close()

	var (
		arena []byte
		hdrs  [chunkRecords]mrt.Header
		offs  [chunkRecords + 1]int
		upds  [chunkRecords]bgp.Update
		peers [chunkRecords]stream.PeerKey
		has   [chunkRecords]bool
		msg   mrt.BGP4MPMessage
		out   composed
		day   int // calendar position receiving updates
	)
	// closeDay closes the day in flight inside a span of its own. CloseDay
	// only queues a barrier, so the shard is settled before (the day's
	// ops stay in the stream span) and after (the close's work lands here).
	closeDay := func(parent, chunk int) {
		eng.Sync()
		cd := tr.begin("stream.closeday", parent, chunk)
		eng.CloseDay(cal.Days[day])
		eng.Sync()
		tr.end(cd)
		day++
	}
	t0 := time.Now()
	for c, eof := 0, false; !eof; c++ {
		root := tr.begin("chunk", -1, c)

		sp := tr.begin("mrt", root, c)
		arena = arena[:0]
		n := 0
		for n < chunkRecords {
			h, buf, err := fr.NextInto(arena)
			if err == io.EOF {
				eof = true
				break
			}
			if err != nil {
				return nil, err
			}
			arena, hdrs[n], offs[n+1] = buf, h, len(buf)
			n++
		}
		tr.end(sp)

		sp = tr.begin("bgp", root, c)
		for i := 0; i < n; i++ {
			has[i] = false
			if hdrs[i].Type != mrt.TypeBGP4MP || hdrs[i].Subtype != mrt.SubtypeMessage {
				continue
			}
			if err := msg.DecodeBGP4MPMessageBorrow(arena[offs[i]:offs[i+1]]); err != nil {
				return nil, err
			}
			typ, body, err := bgp.MessageBody(msg.Data)
			if err != nil {
				return nil, err
			}
			if typ != bgp.MsgUpdate {
				continue
			}
			if err := bgp.DecodeUpdateBodyInto(&upds[i], body, in); err != nil {
				return nil, err
			}
			peers[i], has[i] = stream.PeerKey{IP: msg.PeerIP, AS: msg.PeerAS}, true
		}
		tr.end(sp)

		sp = tr.begin("stream", root, c)
		for i := 0; i < n; i++ {
			if !has[i] {
				continue
			}
			for day+1 < len(cal.Days) && hdrs[i].Timestamp >= cal.Times[day+1] {
				closeDay(sp, c)
			}
			eng.ApplyUpdate(cal.Days[day], peers[i], &upds[i])
			out.updates++
			if upds[i].Attrs != nil {
				out.withAttrs++
			}
		}
		for eof && day < len(cal.Days) {
			closeDay(sp, c)
		}
		eng.Sync()
		tr.end(sp)
		tr.end(root)
	}
	out.wall = time.Since(t0)
	out.stats = eng.Stats()
	out.distinct, out.internMB = in.Len(), float64(in.Bytes())/1e6
	return &out, nil
}

// bareReplay runs Engine.Replay over the archive with nothing of serve
// around it and hands the finished engine to keep (which must not
// retain it); the engine is closed afterwards.
func bareReplay(path string, cal stream.Calendar, cfg stream.Config, keep func(*stream.Engine)) (time.Duration, stream.Stats, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, stream.Stats{}, err
	}
	defer f.Close()
	eng := stream.New(cfg)
	defer eng.Close()
	t0 := time.Now()
	if err := eng.Replay(f, cal, nil); err != nil {
		return 0, stream.Stats{}, err
	}
	eng.Sync()
	wall := time.Since(t0)
	if keep != nil {
		keep(eng)
	}
	return wall, eng.Stats(), nil
}

// timeIt runs fn once and returns how long it took.
func timeIt(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

// runLayers is the traced run: every per-layer metric, from outside,
// by timing calls into the layers' public functions.
func runLayers(o *Options, in *layerInput, r *Result) error {
	a := in.archive
	dir, err := os.MkdirTemp(o.Root, "layers-")
	if err != nil {
		return err
	}
	r.set("synth.gen_mb_per_s", float64(a.Bytes)/1e6/a.GenTime.Seconds())
	r.set("mrt.bytes_per_update", float64(a.Bytes)/float64(a.Updates))

	// The calendar pre-scan every MRT start pays.
	var cal stream.Calendar
	f, err := os.Open(a.Path)
	if err != nil {
		return err
	}
	d := timeIt(func() { cal, err = stream.ArchiveCalendar(f) })
	f.Close()
	if err != nil {
		return err
	}
	r.set("stream.archive_calendar_ms", ms(d))

	// The serial composition, untraced and traced.
	freeMemory()
	plain, err := compose(a.Path, cal, nil)
	if err != nil {
		return fmt.Errorf("serial composition: %w", err)
	}
	freeMemory()
	tr := newTracer()
	traced, err := compose(a.Path, cal, tr)
	if err != nil {
		return fmt.Errorf("traced composition: %w", err)
	}
	if o.TraceDir != "" {
		if err := tr.write(filepath.Join(o.TraceDir, "trace-"+o.Workload+".json")); err != nil {
			return err
		}
	}
	self := selfTimes(tr.spans)
	tr = nil
	updates, ops := float64(traced.updates), float64(traced.stats.Ops)
	r.set("trace.overhead_ratio", traced.wall.Seconds()/plain.wall.Seconds())
	r.set("mrt.frame_ns_per_update", float64(self["mrt"])/updates)
	r.set("bgp.decode_ns_per_update", float64(self["bgp"])/updates)
	r.set("bgp.distinct_attrs", float64(traced.distinct))
	r.set("bgp.interner_mb", traced.internMB)
	if traced.withAttrs > 0 {
		r.set("bgp.intern_hit_ratio", 1-float64(traced.distinct)/float64(traced.withAttrs))
	}
	r.set("stream.apply_ns_per_op", float64(self["stream"])/ops)
	r.set("stream.apply_ns_per_update", float64(self["stream"])/updates)
	r.set("stream.closeday_ms", ms(self["stream.closeday"]))
	r.set("stream.route_nodes", float64(traced.stats.RouteNodes))
	r.set("stream.kernel_states", float64(traced.stats.KernelStates))
	var selfSum time.Duration
	for _, d := range self {
		selfSum += d
	}
	o.logf("  composition: untraced %v, traced %v, self times sum %v (mrt %v, bgp %v, stream %v, closeday %v, chunk %v)",
		plain.wall.Round(time.Millisecond), traced.wall.Round(time.Millisecond), selfSum.Round(time.Millisecond),
		self["mrt"].Round(time.Millisecond), self["bgp"].Round(time.Millisecond), self["stream"].Round(time.Millisecond),
		self["stream.closeday"].Round(time.Millisecond), self["chunk"].Round(time.Millisecond))

	// Bare Engine.Replay: the single-threaded baseline, the daemon
	// default, and the default again with an episode log.
	freeMemory()
	wall11, st11, err := bareReplay(a.Path, cal, engineConfig(1, 1), nil)
	if err != nil {
		return fmt.Errorf("bare replay s1w1: %w", err)
	}
	r.set("stream.replay_ops_per_s.s1w1", float64(st11.Ops)/wall11.Seconds())
	freeMemory()
	var ckErr error
	wallNN, stNN, err := bareReplay(a.Path, cal, engineConfig(0, 0), func(eng *stream.Engine) {
		ckErr = checkpointCodec(eng, r)
	})
	if err == nil {
		err = ckErr
	}
	if err != nil {
		return fmt.Errorf("bare replay sNwN: %w", err)
	}
	r.set("stream.replay_ops_per_s.sNwN", float64(stNN.Ops)/wallNN.Seconds())
	r.set("stream.replay_overlap_ratio", plain.wall.Seconds()/wallNN.Seconds())
	if v := r.get("checkpoint_total_ms"); v > 0 {
		r.set("serve.checkpoint_write_ms", v-r.get("checkpoint_park_ms")-r.get("stream.checkpoint_encode_ms"))
	}

	freeMemory()
	lg, err := epilog.Open(filepath.Join(dir, "tax"), epilog.Options{})
	if err != nil {
		return err
	}
	cfg := engineConfig(0, 0)
	cfg.EpisodeLog = lg
	wallLog, _, err := bareReplay(a.Path, cal, cfg, nil)
	if err != nil {
		lg.Close()
		return fmt.Errorf("bare replay with episode log: %w", err)
	}
	r.set("epilog.replay_tax_ratio", wallLog.Seconds()/wallNN.Seconds())
	if in.servedWall > 0 {
		r.set("serve.overhead_ratio", in.servedWall/wallLog.Seconds())
	}
	err = logQueries(lg, a.Days, in.truth, o.Scale.Queries, r)
	if cerr := lg.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	// Engine.Run over the file source: the live loop's per-record flush
	// without a network in front of it.
	freeMemory()
	if f, err = os.Open(a.Path); err != nil {
		return err
	}
	eng := stream.New(engineConfig(0, 0))
	d = timeIt(func() {
		src := source.NewFileReader(f, "bench", eng.Interner())
		// Record time alone closes days: the wall clock is decades past
		// the archive's epoch-anchored timestamps.
		err = eng.Run(src, &stream.RunOptions{CloseFinalDay: true, Now: func() uint32 { return 0 }})
		eng.Sync()
	})
	eng.Close()
	f.Close()
	if err != nil {
		return fmt.Errorf("Engine.Run over the file source: %w", err)
	}
	r.set("stream.run_ns_per_update", float64(d)/updates)

	// The file source alone.
	if f, err = os.Open(a.Path); err != nil {
		return err
	}
	src := source.NewFileReader(f, "bench", bgp.NewAttrsInterner(false))
	var rec source.Record
	n := 0
	d = timeIt(func() {
		for err = src.Next(&rec); err == nil; err = src.Next(&rec) {
			n++
		}
	})
	f.Close()
	if err != io.EOF || n == 0 {
		return fmt.Errorf("file source: %d updates, %v", n, err)
	}
	r.set("source.file_next_ns_per_update", float64(d)/float64(n))

	// Measurements that do not depend on the archive.
	freeMemory()
	standaloneKernel(in.truth, o.Scale.MicroN, r)
	if err := standaloneLog(filepath.Join(dir, "append"), in.truth, o.Scale.MicroN, r); err != nil {
		return err
	}
	for _, subs := range []int{0, 1, 8} {
		hubPublish(subs, o.Scale.MicroN/4, r)
	}
	if err := speakerNext(o.Seed, o.Scale.MicroN, r); err != nil {
		return fmt.Errorf("bgpd.next: %w", err)
	}
	if err := risliveNext(o.Scale.MicroN/20, r); err != nil {
		return fmt.Errorf("rislive.next: %w", err)
	}
	return nil
}

// checkpointCodec times the four steps of an engine checkpoint round
// trip on a settled engine.
func checkpointCodec(eng *stream.Engine, r *Result) error {
	var ck *stream.Checkpoint
	r.set("stream.checkpoint_snapshot_ms", ms(timeIt(func() { ck = eng.Checkpoint() })))
	var blob []byte
	var err error
	r.set("stream.checkpoint_encode_ms", ms(timeIt(func() { blob, err = stream.AppendCheckpointBinary(nil, ck) })))
	if err != nil {
		return err
	}
	r.set("stream.checkpoint_bytes", float64(len(blob)))
	ck = nil
	freeMemory()
	r.set("stream.checkpoint_decode_ms", ms(timeIt(func() { ck, err = stream.DecodeCheckpointBinary(blob) })))
	if err != nil {
		return err
	}
	var restored *stream.Engine
	r.set("stream.checkpoint_restore_ms", ms(timeIt(func() { restored, err = stream.NewFromCheckpoint(engineConfig(0, 0), ck) })))
	if err != nil {
		return err
	}
	restored.Close()
	return nil
}

// logQueries times the episode log's read side directly.
func logQueries(lg *epilog.Log, days int, truth []synth.Episode, n int, r *Result) error {
	prefix := truth[len(truth)/2].Prefix
	mid := days / 2
	for _, q := range []struct {
		metric string
		run    func() error
	}{
		{"epilog.query_full_ms", func() error { _, err := lg.Query(epilog.Query{Class: -1, AsOf: days - 1}); return err }},
		{"epilog.query_range_ms", func() error {
			_, err := lg.Query(epilog.Query{Class: -1, From: mid, To: mid + 2, AsOf: days - 1})
			return err
		}},
		{"epilog.query_prefix_ms", func() error {
			_, err := lg.Query(epilog.Query{Class: -1, Prefix: &prefix, AsOf: days - 1})
			return err
		}},
		{"epilog.summary_ms", func() error { _, err := lg.Summary(epilog.Query{Class: -1, AsOf: days - 1}); return err }},
	} {
		var samples []float64
		for i := 0; i < n; i++ {
			var err error
			samples = append(samples, ms(timeIt(func() { err = q.run() })))
			if err != nil {
				return fmt.Errorf("%s: %w", q.metric, err)
			}
		}
		r.setMedian(q.metric, samples)
	}
	return nil
}

// standaloneKernel drives a kernel with the start and end observations
// the truth log implies — round after round on fresh days until n
// transitions are done — then with repeats of a settled observation.
func standaloneKernel(truth []synth.Episode, n int, r *Result) {
	k := kernel.New(kernel.Options{HistoryCap: 256})
	transitions := 0
	d := timeIt(func() {
		for day := 0; transitions < n; day += 2 {
			for i := range truth {
				ep := &truth[i]
				k.Apply(kernel.Obs{Day: day, Prefix: ep.Prefix, Origins: ep.Origins, Class: ep.Class})
				k.Apply(kernel.Obs{Day: day + 1, Prefix: ep.Prefix, Origins: ep.Origins[:1]})
			}
			transitions += 2 * len(truth)
		}
	})
	r.set("kernel.apply_transition_ns", float64(d)/float64(transitions))
	steady := 0
	d = timeIt(func() {
		for steady < n {
			for i := range truth {
				k.Apply(kernel.Obs{Day: 1 << 20, Prefix: truth[i].Prefix, Origins: truth[i].Origins[:1]})
			}
			steady += len(truth)
		}
	})
	r.set("kernel.apply_steady_ns", float64(d)/float64(steady))
	r.set("kernel.snapshot_ms", ms(timeIt(func() { k.Snapshot() })))
}

// standaloneLog appends the records the truth log implies — an open
// restatement and a closing record per episode, round after round with
// rising sequence numbers — to a log of its own.
func standaloneLog(dir string, truth []synth.Episode, n int, r *Result) error {
	lg, err := epilog.Open(dir, epilog.Options{})
	if err != nil {
		return err
	}
	records := 0
	d := timeIt(func() {
		for seq := uint64(1); records < n && err == nil; seq += 2 {
			for i := range truth {
				ep := epilog.Episode{Prefix: truth[i].Prefix, Origins: truth[i].Origins, Class: truth[i].Class,
					Seq: seq, Start: int(seq), End: int(seq), Open: true}
				if err = lg.Append(ep); err != nil {
					break
				}
				ep.Seq, ep.Open = seq+1, false
				if err = lg.Append(ep); err != nil {
					break
				}
			}
			records += 2 * len(truth)
		}
	})
	if cerr := lg.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("epilog append: %w", err)
	}
	r.set("epilog.append_ns_per_record", float64(d)/float64(records))
	return nil
}

// hubPublish times Hub.Publish with subs draining subscribers, each
// buffered deep enough never to be dropped.
func hubPublish(subs, n int, r *Result) {
	hub := serve.NewHub(serve.DefaultEventRing, 0)
	var wg sync.WaitGroup
	for i := 0; i < subs; i++ {
		sub, err := hub.Subscribe(n, 0, false)
		if err != nil {
			panic(err) // an uncapped hub never refuses
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range sub.C {
			}
		}()
	}
	ev := stream.Event{Type: kernel.EventConflictStart, Prefix: livePrefix(0), Origins: []bgp.ASN{1, 2}}
	d := timeIt(func() {
		for i := 0; i < n; i++ {
			hub.Publish(ev)
		}
	})
	hub.Close()
	wg.Wait()
	r.set(fmt.Sprintf("serve.hub_publish_ns.s%d", subs), float64(d)/float64(n))
}

// speakerNext blasts n single-prefix announcements over one scripted
// session at a bgpd.Speaker and pulls them through Next with no engine
// behind it: first byte sent to last record delivered.
func speakerNext(seed int64, n int, r *Result) error {
	wire := newLiveFeed(seed, n, 0, 0, 0).Transfer
	blast := append(wire[0], wire[1]...)
	sp, err := bgpd.Listen(bgpd.Config{Addr: "127.0.0.1:0", LocalAS: 64512, Interner: bgp.NewAttrsInterner(false)})
	if err != nil {
		return err
	}
	defer sp.Close()
	peer, err := bgpd.DialScripted(sp.Addr().String(), livePeerAS, 0)
	if err != nil {
		return err
	}
	defer peer.Close()
	sendErr := make(chan error, 1)
	t0 := time.Now()
	go func() {
		var err error
		for b := blast; len(b) > 0 && err == nil; {
			k := min(len(b), transferChunk)
			err = peer.SendRaw(b[:k])
			b = b[k:]
		}
		sendErr <- err
	}()
	var rec source.Record
	for i := 0; i < n; i++ {
		if err := sp.Next(&rec); err != nil {
			return err
		}
	}
	d := time.Since(t0)
	if err := <-sendErr; err != nil {
		return err
	}
	r.set("bgpd.next_ns_per_update", float64(d)/float64(n))
	return nil
}

// risliveNext sends n messages through the fake RIS Live endpoint and
// pulls them through the client's Next.
func risliveNext(n int, r *Result) error {
	fake, err := rislive.NewFake()
	if err != nil {
		return err
	}
	defer fake.Close()
	c, err := rislive.Dial(rislive.Config{URL: fake.URL(), Interner: bgp.NewAttrsInterner(false)})
	if err != nil {
		return err
	}
	defer c.Close()
	if err := fake.WaitSubscribed(1, 5*time.Second); err != nil {
		return err
	}
	sendErr := make(chan error, 1)
	t0 := time.Now()
	go func() {
		var err error
		for i := 0; i < n && err == nil; i++ {
			err = fake.Send(rislive.Msg{
				Timestamp: 86400, Peer: "192.0.2.9", PeerASN: livePeerAS,
				Path: []any{uint32(livePeerAS), uint32(1000 + i%1000), uint32(2000 + i%50000)}, Origin: "igp",
				Announcements: []rislive.Announcement{{NextHop: "192.0.2.9", Prefixes: []string{livePrefix(i).String()}}},
			})
		}
		sendErr <- err
	}()
	var rec source.Record
	for i := 0; i < n; i++ {
		if err := c.Next(&rec); err != nil {
			return err
		}
	}
	d := time.Since(t0)
	if err := <-sendErr; err != nil {
		return err
	}
	r.set("rislive.next_us_per_msg", float64(d)/float64(time.Microsecond)/float64(n))
	return nil
}
