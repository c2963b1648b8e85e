GO ?= go

# SCRATCH collects transient command output (bench logs, smoke logs);
# the whole directory is gitignored and removed by clean.
SCRATCH ?= .scratch
# STORE_BENCH pins the store microbenchmarks to a fixed iteration count
# and a -cpu sweep so sharded-vs-mutex ratios are comparable across runs.
STORE_BENCH = -run '^$$' -bench BenchmarkStore -benchtime=200000x -cpu 1,4,8 -benchmem ./internal/store
# WIRE_BENCH / CODEC_BENCH pin the transport benchmarks to fixed iteration
# counts so pooled exchange and rumor-push latencies and allocation counts
# are stable run to run (the 1x suite pass skips them — see bench).
WIRE_BENCH = -run '^$$' -bench '^(BenchmarkExchange|BenchmarkRumorPush)' -benchtime=2000x -benchmem .
CODEC_BENCH = -run '^$$' -bench Codec -benchtime=20000x -benchmem ./internal/transport
# DEEP_BENCH is the deep-divergence family: delta old entries buried under
# {10k,100k} newer ones, repaired by shard-vector bucket walks. Few
# iterations: each row's setup builds two stores of up to 100k entries.
DEEP_BENCH = -run '^$$' -bench BenchmarkDeepDivergence -benchtime=3x -benchmem .
# FANOUT_BENCH / APPLY_BENCH pin the outbound-engine benchmarks: direct
# mail through a started node's worker-pool outbox to 8-128 peers at 1ms
# latency (one 50ms straggler in the slowpeer row), and the rumor-apply
# batched-vs-per-entry lock ablation. Iterations are fixed so the rows
# are stable run to run (the 1x suite pass covers fan-out; the apply
# ablation lives in ./internal/node).
FANOUT_BENCH = -run '^$$' -bench BenchmarkDirectMailFanout -benchtime=5x -benchmem .
APPLY_BENCH = -run '^$$' -bench BenchmarkApplyRumors -benchtime=5000x -benchmem ./internal/node

.PHONY: all build test check race cover loc bench bench-store bench-transport bench-node bench-smoke bench-adapter experiments fuzz obs-smoke cluster-smoke clean

all: build test check

build:
	$(GO) build ./...

test:
	$(GO) vet ./...
	$(GO) test ./...

# check is the pre-merge gate: gofmt drift (the offending files are listed),
# static analysis, a fast race pass over the sharded store (the most
# concurrency-sensitive package), a targeted race pass over the mail path
# (outbox queues and workers, mail batches on the wire, the slow-peer
# isolation test, redistribution by mail, who hot-lists mail) and over
# anti-entropy (core's shard-vector conversation in process and on the
# wire: the bucket vector that opens it, in sync and with a dormant
# certificate to wake, the bucket walks, the malformed-bucket dispatch
# table), the race detector over the whole
# module (daemons included), and the observability and cluster-observatory
# smoke tests.
check:
	test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }
	$(GO) vet ./...
	$(MAKE) bench-adapter
	$(GO) test -race -count=1 ./internal/store/...
	$(GO) test -race -count=1 -run 'Outbox|MailBatch|SlowPeer|RedistributeMail|ShardVector|Bucket|InSync|ReactivatesDormant' ./internal/core ./internal/node ./internal/transport
	$(GO) test -race ./...
	$(MAKE) obs-smoke
	$(MAKE) cluster-smoke
	$(MAKE) bench-smoke

# obs-smoke boots a 3-daemon gossipd cluster on ephemeral ports, scrapes
# every replica's /metrics, /healthz, /events, /metrics/history and
# /flight, then re-boots the cluster, kills one daemon, and fails unless
# each survivor records exactly one stale-digest flight dump with
# non-empty correlated sections. The verbose log and the flight dumps
# land in $(SCRATCH) for CI artifact upload on failure.
obs-smoke:
	@mkdir -p $(SCRATCH)
	FLIGHT_SMOKE_DIR=$(abspath $(SCRATCH))/flight-smoke \
		$(GO) test -race -v -run 'TestObsSmoke|TestFlightDumpOnDaemonKill' -count=1 ./cmd/gossipd > $(SCRATCH)/obs-smoke.log 2>&1; \
		status=$$?; cat $(SCRATCH)/obs-smoke.log; exit $$status

# cluster-smoke boots a 3-daemon cluster with gossip-borne health digests,
# waits for every replica's /cluster view to cover all three sites, kills
# one daemon, and fails unless the survivors mark it stale and degrade
# /healthz. The verbose log lands in $(SCRATCH) for CI artifact upload.
cluster-smoke:
	@mkdir -p $(SCRATCH)
	$(GO) test -race -v -run TestClusterSmoke -count=1 ./cmd/gossipd > $(SCRATCH)/cluster-smoke.log 2>&1; \
		status=$$?; cat $(SCRATCH)/cluster-smoke.log; exit $$status

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# loc prints the non-test Go lines of every package, the nested bench/
# module included, and their total: the size number ROADMAP tracks.
loc:
	@{ $(GO) list -f '{{.ImportPath}}{{range .GoFiles}} {{$$.Dir}}/{{.}}{{end}}' ./...; \
	   $(GO) list -C bench -f '{{.ImportPath}}{{range .GoFiles}} {{$$.Dir}}/{{.}}{{end}}' ./...; } | \
	while read -r pkg files; do \
		[ -n "$$files" ] && printf '%6d %s\n' "$$(cat $$files | wc -l)" "$$pkg"; \
	done | awk '{ print; total += $$1 } END { printf "%6d total\n", total }'

# bench runs the full go test benchmark suite once per benchmark, then the
# store -cpu sweep and the pinned wire, codec and deep-divergence rows:
# ns/op, B/op, allocs/op and the paper metrics per benchmark, collected in
# $(SCRATCH)/bench_output.txt. The repository's perf record is the
# live-cluster benchmark (BENCHMARK.json, go run -C bench .).
bench:
	@mkdir -p $(SCRATCH)
	$(GO) test -bench . -skip 'BenchmarkExchange|BenchmarkRumorPush|BenchmarkDeepDivergence' -benchtime=1x -benchmem . | tee $(SCRATCH)/bench_output.txt
	$(GO) test $(STORE_BENCH) | tee -a $(SCRATCH)/bench_output.txt
	$(GO) test $(WIRE_BENCH) | tee -a $(SCRATCH)/bench_output.txt
	$(GO) test $(CODEC_BENCH) | tee -a $(SCRATCH)/bench_output.txt
	$(GO) test $(DEEP_BENCH) | tee -a $(SCRATCH)/bench_output.txt

# bench-store compares the sharded store against a single-mutex replica
# of the seed design on mixed Get/Update/Checksum/RecentUpdates
# workloads at 1, 4 and 8 procs (see internal/store/bench_test.go).
bench-store:
	$(GO) test $(STORE_BENCH)

# bench-transport measures the wire protocol in isolation: pooled
# exchanges and rumor pushes, the O(δ) peel-back mismatch
# benchmark, and the raw codec encode/round-trip microbenchmarks, with
# allocation counts.
bench-transport:
	$(GO) test $(WIRE_BENCH)
	$(GO) test $(CODEC_BENCH)
	$(GO) test $(DEEP_BENCH)

# bench-node is the outbound-engine report: the outbox's direct-mail
# fan-out rows, the rumor-apply lock ablation, and a re-run of the wire
# exchange/rumor rows so the report carries fresh transport numbers from
# the same machine, collected in $(SCRATCH)/bench_node.txt.
bench-node:
	@mkdir -p $(SCRATCH)
	$(GO) test $(FANOUT_BENCH) | tee $(SCRATCH)/bench_node.txt
	$(GO) test $(APPLY_BENCH) | tee -a $(SCRATCH)/bench_node.txt
	$(GO) test $(WIRE_BENCH) | tee -a $(SCRATCH)/bench_node.txt

# bench-smoke is the compile-and-run gate inside check: the deep-divergence
# family at one iteration on the 10k store, so bench code can't rot between
# full runs. The 100k rows, whose setup alone builds two 100k stores, are
# left to bench/bench-transport.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkDeepDivergence[^/]*/n10000_' -benchtime=1x -benchmem .

# bench-adapter vets and tests the live-cluster benchmark under bench/: a
# nested module that `go build ./...` and `go vet ./...` never see, so a
# change to an API it links (bench/layers/api.go) would otherwise first fail
# when the benchmark itself runs. The tests include TestSmoke, which boots
# three gossipd daemons per workload and reads every key back (a deleted
# one must read MISSING): the one end-to-end run of the wire protocol in
# check and CI (≈ 15 s on two cores).
bench-adapter:
	$(GO) vet -C bench ./...
	$(GO) test -C bench -count=1 ./...

# Regenerate every table and figure of the paper.
experiments:
	$(GO) run ./cmd/epidemicsim -exp all -trials 100

fuzz:
	$(GO) test ./internal/store -fuzz FuzzApply -fuzztime 30s
	$(GO) test ./internal/store -fuzz FuzzLoad -fuzztime 30s
	$(GO) test ./internal/transport -fuzz FuzzDecodeFrame -fuzztime 30s

clean:
	rm -f test_output.txt bench_output.txt
	rm -rf $(SCRATCH) internal/store/testdata/fuzz
