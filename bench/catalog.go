package bench

import "slices"

// Workload names. Later issues cite these; do not rename.
const (
	TableReplay       = "table-replay"
	StormReplay       = "storm-replay"
	LiveServe         = "live-serve"
	CheckpointRecover = "checkpoint-recover"
)

// Workloads lists the workloads in the order a full set runs them.
var Workloads = []string{TableReplay, StormReplay, LiveServe, CheckpointRecover}

// Def describes one metric: the single source for units, directions,
// bounds and the workloads that measure it, which BENCHMARK.json and the
// README glossary must agree with (catalog_test.go).
type Def struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the baseline by which the metric may worsen
	// before -compare marks it outside; 0 means reported, not gated.
	Bound float64
	// Layer metrics describe one layer and go to the driver in the
	// per_layer set; most come from the traced run. The others are
	// end-to-end and always measured with tracing off.
	Layer bool
	// On lists the workloads that measure the metric; nil means all four.
	On  []string
	Doc string
}

// Driven reports whether the benchmark driver gates the metric as one of
// BENCHMARK.json's end_to_end entries. Its contract wants every such
// metric from every workload on every run, never 0 and never the same
// reading twice, so an end-to-end metric that exists on one workload
// only (or failed_share, which is 0 on every good run and which the
// driver gets as failed/attempted anyway) cannot be one: those reach it
// in the per_layer set, reading 0 where a workload has none, and are
// judged by -compare.
func (d Def) Driven() bool { return !d.Layer && d.On == nil && d.Name != "failed_share" }

// measuredOn reports whether the workload measures the metric.
func (d Def) measuredOn(workload string) bool {
	return d.On == nil || slices.Contains(d.On, workload)
}

var (
	replays = []string{TableReplay, StormReplay}
	storm   = []string{StormReplay}
	live    = []string{LiveServe}
	ckpt    = []string{CheckpointRecover}
)

// Catalog is every metric moasbench can print, in print order. Bounds
// are the issue's: a tenth for timings, 3 % for sizes, 0.02 for the SLO
// share; setup_s has the contract's largest.
var Catalog = []Def{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Doc: "input generation + MRT write + stack boot before the first timed phase, median of three set-ups"},
	{Name: "ingest_ops_per_s", Unit: "ops/s", Better: "higher", Bound: 0.25, Doc: "route ops applied per second of wall from POST start (live-serve: first byte sent) until the input is applied"},
	{Name: "ingest_updates_per_s", Unit: "updates/s", Better: "higher", Bound: 0.25, Doc: "same wall, in UPDATE messages (not comparable across corpora)"},
	{Name: "peak_heap_mb", Unit: "MB", Better: "lower", Bound: 0.03, Doc: "HeapInuse after a forced GC with the finished scenario resident, minus HeapInuse once it is gone (the benchmark's own state)"},
	{Name: "query_episodes_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10, On: storm, Doc: "GET /episodes over a three-day window of the finished log"},
	{Name: "live_updates_per_s", Unit: "updates/s", Better: "higher", Bound: 0.10, On: live, Doc: "table transfer: first byte sent until /stats messages reaches the count (ingest_updates_per_s under the issue's name)"},
	{Name: "event_latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10, On: live, Doc: "due send time to SSE receipt, median of the one-second windows' medians"},
	{Name: "event_slo_share", Unit: "share", Better: "higher", Bound: 0.02, On: live, Doc: "expected conflict events received within 50 ms of their due time / expected"},
	{Name: "query_conflicts_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10, On: live, Doc: "GET /conflicts?limit=100 beside the open loop, 20/s, from due time"},
	{Name: "checkpoint_park_ms", Unit: "ms", Better: "lower", Bound: 0.10, On: ckpt, Doc: "how long ingest is parked by a checkpoint (Engine.Parked sampled every ms during CheckpointNow)"},
	{Name: "checkpoint_total_ms", Unit: "ms", Better: "lower", Bound: 0.10, On: ckpt, Doc: "Registry.CheckpointNow duration (park + encode + write + fsync + rename)"},
	{Name: "checkpoint_mb", Unit: "MB", Better: "lower", Bound: 0.03, On: ckpt, Doc: "size of the newest ck-*.mckpt"},
	{Name: "recover_s", Unit: "s", Better: "lower", Bound: 0.10, On: ckpt, Doc: "Recover() entered to first 200 from /conflicts?limit=1"},
	{Name: "failed_share", Unit: "share", Better: "lower", Doc: "failed / attempted operations (any truth mismatch also exits non-zero)"},

	{Name: "mrt.frame_ns_per_update", Unit: "ns", Better: "lower", Layer: true, Doc: "self time of framing 1024-record chunks / updates"},
	{Name: "mrt.bytes_per_update", Unit: "bytes", Better: "lower", Layer: true, Doc: "archive bytes / updates"},
	{Name: "bgp.decode_ns_per_update", Unit: "ns", Better: "lower", Layer: true, Doc: "BGP4MP borrow + header split + UPDATE decode with interning / updates"},
	{Name: "bgp.intern_hit_ratio", Unit: "ratio", Better: "higher", Layer: true, Doc: "1 - distinct attrs / updates carrying attrs"},
	{Name: "bgp.distinct_attrs", Unit: "count", Better: "lower", Layer: true, Doc: "attribute blocks the interner holds after the archive"},
	{Name: "bgp.interner_mb", Unit: "MB", Better: "lower", Layer: true, Doc: "interner retained bytes"},
	{Name: "stream.apply_ns_per_op", Unit: "ns", Better: "lower", Layer: true, Doc: "ApplyUpdate + Sync self time at shards=1 / route ops"},
	{Name: "stream.apply_ns_per_update", Unit: "ns", Better: "lower", Layer: true, Doc: "same self time / updates"},
	{Name: "stream.closeday_ms", Unit: "ms", Better: "lower", Layer: true, Doc: "total time in CloseDay over the archive"},
	{Name: "stream.route_nodes", Unit: "count", Better: "lower", Layer: true, Doc: "route entries resident after the archive"},
	{Name: "stream.kernel_states", Unit: "count", Better: "lower", Layer: true, Doc: "kernel state objects resident after the archive"},
	{Name: "stream.replay_ops_per_s.s1w1", Unit: "ops/s", Better: "higher", Layer: true, Doc: "bare Engine.Replay, one shard, one decode worker"},
	{Name: "stream.replay_ops_per_s.sNwN", Unit: "ops/s", Better: "higher", Layer: true, Doc: "bare Engine.Replay at the daemon default (GOMAXPROCS shards and workers)"},
	{Name: "stream.replay_overlap_ratio", Unit: "ratio", Better: "higher", Layer: true, Doc: "sum of serial self times / pipelined (sNwN) wall"},
	{Name: "stream.archive_calendar_ms", Unit: "ms", Better: "lower", Layer: true, Doc: "ArchiveCalendar pre-scan every MRT start pays"},
	{Name: "stream.run_ns_per_update", Unit: "ns", Better: "lower", Layer: true, Doc: "Engine.Run over source.NewFileReader / updates (per-record flush)"},
	{Name: "stream.checkpoint_snapshot_ms", Unit: "ms", Better: "lower", Layer: true, Doc: "Engine.Checkpoint on the settled engine"},
	{Name: "stream.checkpoint_encode_ms", Unit: "ms", Better: "lower", Layer: true, Doc: "AppendCheckpointBinary"},
	{Name: "stream.checkpoint_bytes", Unit: "bytes", Better: "lower", Layer: true, Doc: "encoded engine checkpoint size"},
	{Name: "stream.checkpoint_decode_ms", Unit: "ms", Better: "lower", Layer: true, Doc: "DecodeCheckpointBinary"},
	{Name: "stream.checkpoint_restore_ms", Unit: "ms", Better: "lower", Layer: true, Doc: "NewFromCheckpoint"},
	{Name: "kernel.apply_transition_ns", Unit: "ns", Better: "lower", Layer: true, Doc: "standalone kernel.Apply per start/end observation the truth log implies"},
	{Name: "kernel.apply_steady_ns", Unit: "ns", Better: "lower", Layer: true, Doc: "standalone kernel.Apply per repeated (eventless) observation"},
	{Name: "kernel.snapshot_ms", Unit: "ms", Better: "lower", Layer: true, Doc: "Kernel.Snapshot of that kernel"},
	{Name: "epilog.append_ns_per_record", Unit: "ns", Better: "lower", Layer: true, Doc: "standalone Log.Append per record the truth log implies"},
	{Name: "epilog.appended", Unit: "count", Better: "lower", Layer: true, Doc: "records the served scenario appended"},
	{Name: "epilog.segments", Unit: "count", Better: "lower", Layer: true, Doc: "segments of the served scenario's log"},
	{Name: "epilog.compactions", Unit: "count", Better: "lower", Layer: true, Doc: "compaction passes of the served scenario's log"},
	{Name: "epilog.disk_mb", Unit: "MB", Better: "lower", Layer: true, Doc: "bytes of the served scenario's log"},
	{Name: "epilog.replay_tax_ratio", Unit: "ratio", Better: "lower", Layer: true, Doc: "bare replay wall with / without an EpisodeLog"},
	{Name: "epilog.query_full_ms", Unit: "ms", Better: "lower", Layer: true, Doc: "Log.Query, no filter"},
	{Name: "epilog.query_range_ms", Unit: "ms", Better: "lower", Layer: true, Doc: "Log.Query over a three-day window"},
	{Name: "epilog.query_prefix_ms", Unit: "ms", Better: "lower", Layer: true, Doc: "Log.Query for one prefix"},
	{Name: "epilog.summary_ms", Unit: "ms", Better: "lower", Layer: true, Doc: "Log.Summary, no filter"},
	{Name: "serve.hub_publish_ns.s0", Unit: "ns", Better: "lower", Layer: true, Doc: "Hub.Publish with no subscriber"},
	{Name: "serve.hub_publish_ns.s1", Unit: "ns", Better: "lower", Layer: true, Doc: "Hub.Publish with one draining subscriber"},
	{Name: "serve.hub_publish_ns.s8", Unit: "ns", Better: "lower", Layer: true, Doc: "Hub.Publish with eight draining subscribers"},
	{Name: "serve.overhead_ratio", Unit: "ratio", Better: "lower", Layer: true, On: replays, Doc: "served start-to-done wall / bare Engine.Replay wall, same archive and config"},
	{Name: "serve.sse_published", Unit: "count", Better: "higher", Layer: true, Doc: "events the served scenario's hub published"},
	{Name: "serve.sse_dropped", Unit: "count", Better: "lower", Layer: true, Doc: "subscribers the hub dropped for falling behind"},
	{Name: "serve.event_latency_p99_ms", Unit: "ms", Better: "lower", Layer: true, On: live, Doc: "highest supported tail percentile of event latency"},
	{Name: "serve.event_latency_max_ms", Unit: "ms", Better: "lower", Layer: true, On: live, Doc: "worst event latency"},
	{Name: "serve.query_prefix_p50_ms", Unit: "ms", Better: "lower", Layer: true, On: live, Doc: "GET /prefix/{cidr} beside the open loop, 20/s, from due time"},
	{Name: "serve.query_summary_p50_ms", Unit: "ms", Better: "lower", Layer: true, On: storm, Doc: "GET /episodes/summary"},
	{Name: "serve.checkpoint_write_ms", Unit: "ms", Better: "lower", Layer: true, On: ckpt, Doc: "checkpoint_total_ms - checkpoint_park_ms - stream.checkpoint_encode_ms"},
	{Name: "serve.gen_late_max_ms", Unit: "ms", Better: "lower", Layer: true, On: live, Doc: "worst generator lateness; events caused more than 5 ms late are void"},
	{Name: "serve.gen_void_share", Unit: "share", Better: "lower", Layer: true, On: live, Doc: "void events / expected events; above 0.02 the run is void"},
	{Name: "source.file_next_ns_per_update", Unit: "ns", Better: "lower", Layer: true, Doc: "source.File.Next without an engine"},
	{Name: "bgpd.next_ns_per_update", Unit: "ns", Better: "lower", Layer: true, Doc: "scripted blast to Speaker.Next without an engine"},
	{Name: "rislive.next_us_per_msg", Unit: "us", Better: "lower", Layer: true, Doc: "rislive.Fake to Client.Next; includes the fake's JSON marshal (upper bound)"},
	{Name: "synth.gen_mb_per_s", Unit: "MB/s", Better: "higher", Layer: true, Doc: "generator output rate for this workload's archive"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower", Layer: true, Doc: "traced / untraced wall of the serial composition"},
}

// def looks a metric up by name; an unknown name is a bug in the caller.
func def(name string) Def {
	for _, d := range Catalog {
		if d.Name == name {
			return d
		}
	}
	panic("bench: metric " + name + " is not in the catalog")
}
