GO ?= go
# Benchmark repetitions and length; an explicit GOMAXPROCS, because
# throughput numbers from boxes with different core counts are not
# comparable.
BENCH_COUNT ?= 5
BENCH_TIME ?= 1s
BENCH_CPU ?= $(shell nproc 2>/dev/null || echo 1)

.PHONY: build test race allocs bench benchall bench-check bench-e2e profile fuzz-smoke soak vet fmt docscheck depcheck deadcode ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# allocs runs the allocation guards and the heap budget without the
# race detector, which changes allocation counts and the heap's shape:
# TestCheckpointAllocBudget and TestRunBurstAllocs are //go:build !race,
# so `race` never runs them, and TestBytesPerPrefix and TestHotLayouts
# (the bytes a prefix costs, and the layouts they rest on) are held here
# as a build without the detector runs, not only under it.
allocs:
	$(GO) test -count=1 -run 'TestCheckpointAllocBudget|TestSteadyStateDecodeDispatchZeroAlloc|TestAppendAllocs|TestHealthzCostIndependentOfState|TestSpeakerNextAllocs|TestRunBurstAllocs|TestInternHitAllocs|TestInternMissAllocs|TestBytesPerPrefix|TestHotLayouts' \
		./internal/stream/ ./internal/epilog/ ./internal/serve/ ./internal/source/bgpd/ ./internal/bgp/

# bench prints the stream layer's go-test benchmarks — the ones that
# carry what moasbench cannot see from outside: allocs/update and
# distinct-attrs on the replay (with the episode-log-enabled variant),
# 1 and GOMAXPROCS shards on the 1M-prefix table and on the storm
# corpus (BenchmarkSynthReplay, BenchmarkStormReplay), the storm
# with an episode log attached and the log's writes per episode
# (BenchmarkStormReplayEpilog), live-serve's table transfer through a
# BGP speaker into Engine.Run (BenchmarkLiveTransfer: updates/s and
# allocs/update of the live path), the shard-reassess hot path, and the
# checkpoint path (phase=snapshot
# imaging the engine, codec=binary encoding the image with its size as
# the bytes metric, phase=restore) — and the kernel's imaging of an
# event-heavy kernel (time, bytes and objects by the table, not by the
# event). All in the text format benchstat reads. Nothing is
# recorded: end-to-end and per-layer numbers, and comparing two commits,
# are moasbench's job (bench-e2e below, and `moasbench -compare old new`).
bench:
	$(GO) test -run XXX -bench 'BenchmarkStreamReplay|BenchmarkSynthReplay|BenchmarkStormReplay|BenchmarkStormReplayEpilog|BenchmarkLiveTransfer|BenchmarkDecodeUpdate|BenchmarkShardReassess|BenchmarkCheckpointEncode' \
		-benchmem -count $(BENCH_COUNT) -benchtime $(BENCH_TIME) -cpu $(BENCH_CPU) ./internal/stream
	$(GO) test -run XXX -bench 'BenchmarkStormSnapshot' \
		-benchmem -count $(BENCH_COUNT) -benchtime $(BENCH_TIME) -cpu $(BENCH_CPU) ./internal/kernel

benchall:
	$(GO) test -bench . -run XXX -benchmem ./...

# bench/ is its own module (it times this one from outside), so
# `go test ./...` stops at its boundary: bench-check vets it and runs its
# tests — a 3 s smoke run of every workload and the BENCHMARK.json <->
# catalog check — against the current tree. bench-e2e runs the declared
# benchmark itself (BENCHMARK.json's command).
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

bench-e2e:
	sh bench/run.sh

# profile replays the internet-scale synth corpus (BenchmarkSynthReplay,
# the PR 7 differential-oracle generator at 1M prefixes) under the CPU
# profiler and prints the top-10 cumulative functions — the quickest
# answer to "where does replay time actually go". PROFILE_KIND=mem takes
# the heap profile instead and prints the top-10 lines by bytes still in
# use — "what is all this memory". The profile
# (cpu.pprof or mem.pprof) and the test binary stay on disk for
# interactive `go tool pprof stream.test cpu.pprof`; PROFILE.txt is the
# text summary CI appends to the job summary.
PROFILE_TIME ?= 1x
PROFILE_KIND ?= cpu
PROFILE_TOP_cpu = -cum
PROFILE_TOP_mem = -sample_index=inuse_space
profile:
	$(GO) test -run XXX -bench 'BenchmarkSynthReplay' -benchtime $(PROFILE_TIME) \
		-cpu $(BENCH_CPU) -$(PROFILE_KIND)profile $(PROFILE_KIND).pprof -o stream.test ./internal/stream
	$(GO) tool pprof -top -nodecount=10 $(PROFILE_TOP_$(PROFILE_KIND)) stream.test $(PROFILE_KIND).pprof | tee PROFILE.txt

# fuzz-smoke briefly live-fuzzes the snapshot/checkpoint restore surface
# on top of the committed seed corpus (testdata/fuzz). go test -fuzz
# takes exactly one target per invocation, hence one line per target.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run XXX -fuzz FuzzSnapshotRestore -fuzztime $(FUZZTIME) ./internal/kernel
	$(GO) test -run XXX -fuzz FuzzCheckpointRestore -fuzztime $(FUZZTIME) ./internal/stream
	$(GO) test -run XXX -fuzz FuzzBGPSessionMessages -fuzztime $(FUZZTIME) ./internal/source/bgpd
	$(GO) test -run XXX -fuzz FuzzTruthLogDecode -fuzztime $(FUZZTIME) ./internal/synth
	$(GO) test -run XXX -fuzz FuzzEpisodeLogDecode -fuzztime $(FUZZTIME) ./internal/epilog
	$(GO) test -run XXX -fuzz FuzzIntern -fuzztime $(FUZZTIME) ./internal/bgp
	$(GO) test -run XXX -fuzz FuzzParsePrefix -fuzztime $(FUZZTIME) ./internal/bgp
	$(GO) test -run XXX -fuzz FuzzUpdateBody -fuzztime $(FUZZTIME) ./internal/bgp
	$(GO) test -run XXX -fuzz FuzzMRTFramer -fuzztime $(FUZZTIME) ./internal/source
	$(GO) test -run XXX -fuzz FuzzPrefixTable -fuzztime $(FUZZTIME) ./internal/ptable
	$(GO) test -run XXX -fuzz FuzzIndex -fuzztime $(FUZZTIME) ./internal/arena

# soak runs the months-of-days synth flap-storm leak check under the race
# detector (the short version runs in every `go test ./...`).
soak:
	MOAS_SOAK=1 $(GO) test -race -run TestSynthFlapStormSoak -v ./internal/stream

vet:
	$(GO) vet ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Every internal package must carry a package comment ("// Package xyz ...")
# so the docs never lag the code silently.
docscheck:
	@missing=0; \
	for d in internal/*/; do \
		pkg=$$(basename $$d); \
		if ! grep -qs "^// Package $$pkg " $$d*.go; then \
			echo "missing package comment: internal/$$pkg"; missing=1; \
		fi; \
	done; \
	if [ $$missing -ne 0 ]; then exit 1; fi

# The layering docs/ARCHITECTURE.md draws, enforced: the engine
# (internal/stream) is a library — it links no HTTP stack, none of the
# paper world (topology simulator, scenario, collector, batch driver,
# figure code) and not the wire layer above it — and the figure code
# (internal/analysis) is arithmetic over detection output: no simulator,
# no driver, no engine. The kernel and the episode log know nothing of
# each other: the records they exchange (Episode, Class) are declared
# once, in internal/core. The MRT edge stays a leaf: internal/mrt links
# no moas package but internal/bgp and the leaf internal/arena under it,
# and mrtdump none of the simulator, collector, engine or daemon. serve
# is the one layer that speaks JSON:
# the kernel and the engine link no encoding/json, so their images have
# one encoding, the binary one. `go list -deps` excludes test imports,
# so the stream tests may still replay scenario archives.
depcheck:
	@bad=$$( { \
		$(GO) list -deps ./internal/stream | grep -xE 'net/http|moas/internal/(analysis|driver|scenario|simnet|topology|collector|serve)' | sed 's|^|internal/stream links |'; \
		$(GO) list -deps ./internal/stream | grep -xE 'encoding/json' | sed 's|^|internal/stream links |'; \
		$(GO) list -deps ./internal/analysis | grep -xE 'moas/internal/(driver|scenario|simnet|topology|kernel|stream)' | sed 's|^|internal/analysis links |'; \
		$(GO) list -deps ./internal/kernel | grep -xE 'moas/internal/epilog|encoding/json' | sed 's|^|internal/kernel links |'; \
		$(GO) list -deps ./internal/epilog | grep -xE 'moas/internal/kernel' | sed 's|^|internal/epilog links |'; \
		$(GO) list -deps ./internal/mrt | grep -E '^moas(/|$$)' | grep -vxE 'moas/internal/(mrt|bgp|arena)' | sed 's|^|internal/mrt links |'; \
		$(GO) list -deps ./cmd/mrtdump | grep -xE 'moas/internal/(scenario|simnet|topology|collector|stream|serve)' | sed 's|^|cmd/mrtdump links |'; \
	} ); \
	if [ -n "$$bad" ]; then echo "$$bad"; exit 1; fi

# deadcode lists the exported internal identifiers no non-test file names
# (exports_test.go): the ones kept on purpose, with their reasons, and a
# failure for any other. It parses bench/ too, so an export only the
# benchmark uses counts as used.
deadcode:
	$(GO) test -count=1 -run 'TestExportsHaveCallers' -v .

ci: fmt vet docscheck depcheck deadcode build race allocs bench-check
