# Tier-1 verification plus the extended checks: `make check` runs build,
# vet, nclint, tests, and the race detector as one command.

GO ?= go

NCLINT := bin/nclint
NCLINT_SRCS := $(shell find cmd/nclint internal/analysis -name '*.go' -not -path '*/testdata/*')

.PHONY: build test test-portable test-race test-chaos test-soak test-e2e test-rolling examples fuzz-smoke vet lint bench bench-hotpath bench-guard bench-e2e cover check

build:
	$(GO) build ./...

# nclint is the repo's own analyzer suite (cmd/nclint): buffer-pool
# discipline, recv-buffer aliasing, hot-path allocation bans, simulated-time
# purity, control-plane error handling, lock-acquisition order, RCU snapshot
# hygiene, raw-syscall pointer liveness, telemetry naming, and build-tag twin
# parity. See DESIGN.md ("Statically enforced invariants") for the full list
# and the suppression syntax. The -suppressions pass after the findings run
# keeps every //nolint:nc site carrying a written reason.
$(NCLINT): $(NCLINT_SRCS) go.mod
	$(GO) build -o $(NCLINT) ./cmd/nclint

# The gofmt gate skips testdata: the telemetrycheck fixture's golden
# diagnostic positions depend on its hand-kept layout.
lint: vet $(NCLINT)
	@unformatted=$$(gofmt -l $$(find . -name '*.go' -not -path './.*' -not -path '*/testdata/*')); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l:"; echo "$$unformatted"; exit 1; fi
	./$(NCLINT) ./...
	./$(NCLINT) -suppressions ./...

# test builds the linter first so a broken analyzer fails fast even when
# only the test target runs.
test: $(NCLINT)
	$(GO) test ./...

# test-portable runs the codec packages as a 386 build — natively on an
# amd64 host — which is the only place internal/gf/kernel_other.go (the table
# loops with no vector body) executes. arm64 and the rest get no closer here
# than the build-only cross-compile job.
test-portable:
	GOARCH=386 $(GO) test ./internal/gf ./internal/rlnc

test-race:
	$(GO) test -race ./...

# test-chaos runs the seeded fault-injection suites: the deterministic
# end-to-end butterfly harness (its failover logs pinned to goldens), the
# Service's own failover tests, plus the emunet, cloud, and controller
# resilience tests. Same seeds, same fault schedules, every run.
test-chaos:
	$(GO) test -count=1 -v -run 'TestGenerateSchedule|TestButterfly|TestSeededChaos|TestFailoverLogsGolden' ./internal/chaostest/
	$(GO) test -count=1 -v -run 'TestButterflyDeployFile|TestServiceHealsRelayCrash|TestDecisionDuringOutageConverges' ./internal/core/
	$(GO) test -count=1 -run 'TestFault|TestPartition|TestCloseCancelsInFlight|TestBurstLoss|TestCrash|TestRestart|TestFailLaunches|TestSupervisor|TestPoolLaunch' \
		./internal/emunet/ ./internal/cloud/ ./internal/controller/

# test-e2e runs the multi-process deployment smoke test: the butterfly as
# six real ncd processes on loopback, tables pushed via the real ncctl
# binary, sinks polled for decode completion over the admin endpoint.
# -short shrinks the stream; the same test also rides along in plain
# `go test ./...`.
test-e2e:
	$(GO) test -count=1 -short -v -run 'TestE2E' ./internal/e2e/

# test-rolling runs the zero-downtime operations tier: the six-process
# loopback butterfly carries a multicast while `ncctl rolling-restart` walks
# every relay VNF through drain → exec-handoff restart → reconfigure (zero
# dropped sessions, both sinks decode every generation); the in-process
# simclock twin then drains and hot-reloads relays under churn and fault
# injection with -race, leak checking, and pool double-put accounting on;
# finally the procnet lifecycle harness exercises /drain, SIGTERM, and the
# /restart handoff against real processes. CI runs the -short variant as
# its own `rolling` job.
test-rolling:
	$(GO) test -count=1 -v -run 'TestRollingRestartButterfly' ./internal/e2e/
	$(GO) test -count=1 -race -v -run 'TestRollingRestartUnderTraffic|TestReloadChurnSoak' ./internal/chaostest/
	$(GO) test -count=1 -run 'TestDrainExitsProcess|TestSigtermDrainsProcess|TestRestartHandoff' ./internal/procnet/

# examples runs every program under examples/ and stops at the first
# non-zero exit. quickstart, filetransfer and conference verify the bytes
# they deliver,
# so this is an end-to-end check of the public API the examples use.
EXAMPLES := quickstart filetransfer livestream conference dynamicscaling butterfly
examples:
	for e in $(EXAMPLES); do \
		echo "== examples/$$e"; \
		$(GO) run ./examples/$$e || exit 1; \
	done

# fuzz-smoke runs each parser of outside input under the fuzzer for
# FUZZTIME: the deploy file (ncctl, ncd's /reload, the planner's output),
# the deploy-file differ over two parsed files (cold start vs reload), the
# admin endpoint's POST /reload on a live daemon (ncd's only control
# surface), and the data-plane packet and ACK decoders — plus the generation
# index's session lifecycle (traffic past the capacity, end, revive) under
# its accounting invariants. The checked-in seed corpora under each
# package's testdata/fuzz already run in plain `go test`; this mutates past
# them.
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParseDeployFile$$' -fuzztime $(FUZZTIME) ./internal/controller/
	$(GO) test -run '^$$' -fuzz '^FuzzReloadDiffer$$' -fuzztime $(FUZZTIME) ./internal/controller/
	$(GO) test -run '^$$' -fuzz '^FuzzAdminReload$$' -fuzztime $(FUZZTIME) ./internal/controller/
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/ncproto/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeAck$$' -fuzztime $(FUZZTIME) ./internal/ncproto/
	$(GO) test -run '^$$' -fuzz '^FuzzSessionLifecycle$$' -fuzztime $(FUZZTIME) ./internal/dataplane/

# test-soak runs the full many-session churn soak under the race detector:
# thousands of concurrent decoder sessions starved against the buffer
# capacity (every retirement counted), then revived and torn down, against
# concurrent RCU table pushes, with leak and double-put accounting on. CI
# runs the -short variant; this is the full one.
test-soak:
	$(GO) test -count=1 -race -v -run 'TestSessionChurnSoak' ./internal/chaostest/

# vet includes asmdecl: the frame sizes and argument offsets of
# internal/gf/kernel_amd64.s and kernel_gfni_amd64.s against the Go
# declarations beside them.
vet:
	$(GO) vet ./...

# bench runs the data-plane micro-benchmarks that gate hot-path changes.
bench:
	$(GO) test -run 'XXX' -bench 'BenchmarkKernel|BenchmarkCombineSlices|BenchmarkRecode|BenchmarkVNFPipeline|BenchmarkRelaySteadyState|BenchmarkRecoderPacketProcessing|BenchmarkDecoderBatch|BenchmarkEncodeCodedInto|BenchmarkXorWords|BenchmarkTableRead|BenchmarkManySessionPipeline' -benchmem \
		./internal/gf/ ./internal/rlnc/ ./internal/dataplane/

# bench-hotpath is the quick subset: GF kernels and the VNF pipeline.
bench-hotpath:
	$(GO) test -run 'XXX' -bench 'BenchmarkVNFPipeline' -benchmem ./internal/dataplane/
	$(GO) test -run 'XXX' -bench 'BenchmarkKernel|BenchmarkCombineSlices' -benchmem ./internal/gf/

# bench-guard reruns the guarded hot-path benchmarks — the telemetry-
# instrumented VNF pipeline, the relay in steady state (fresh generations
# past the buffer capacity, which the pipeline benchmark's 64-generation
# ring never reaches), the lock-free forwarding-table read, and the
# many-session pipeline at a capacity of two generations per session — and fails if the best of three runs
# regresses more than 10% against the benchguard-baseline lines in
# bench_results.txt. The real-socket benchmarks (batched UDP send, the
# loopback source->relay->receiver pipeline, the registry reverse lookup)
# run in a second invocation with a wider tolerance: kernel socket timings
# on a shared host are far noisier than pure-CPU kernels.
bench-guard:
	$(GO) build -o bin/benchguard ./cmd/benchguard
	$(GO) test -run 'XXX' -bench 'BenchmarkVNFPipeline|BenchmarkRelaySteadyState|BenchmarkTableRead|BenchmarkManySessionPipeline' -benchtime 200ms -count 3 ./internal/dataplane/ \
		| ./bin/benchguard -baseline bench_results.txt \
			-only '^Benchmark(VNFPipeline|RelaySteadyState|TableRead|ManySessionPipeline)'
	{ $(GO) test -run 'XXX' -bench 'BenchmarkUDPSendBatch|BenchmarkRegistryReverse' -benchtime 200ms -count 3 ./internal/emunet/ && \
	  $(GO) test -run 'XXX' -bench 'BenchmarkUDPPipeline' -benchtime 200ms -count 3 ./internal/dataplane/ ; } \
		| ./bin/benchguard -baseline bench_results.txt -tolerance 0.35 \
			-only '^Benchmark(UDPSendBatch|UDPPipeline|RegistryReverse)'

# bench-e2e runs the whole-system benchmark BENCHMARK.json declares: every
# workload through benchmark/run.sh (closed-loop, byte-verified, untraced),
# one run per seed, appended to BENCH_E2E_OUT; then, when BENCH_E2E_BASE
# names a runs file — typically the same target run in a checkout of the
# parent commit — the two are held against the declared bounds with -compare.
#   make bench-e2e BENCH_E2E_SEEDS="1 2 3" BENCH_E2E_BASE=/tmp/parent.jsonl
# CI runs it at BENCH_E2E_SECONDS=2 as a smoke of all four deployments.
BENCH_E2E_SECONDS ?= 20
BENCH_E2E_SEEDS ?= 1
BENCH_E2E_OUT ?= benchmark/out/e2e.jsonl
BENCH_E2E_BASE ?=
bench-e2e:
	rm -f $(BENCH_E2E_OUT)
	for s in $(BENCH_E2E_SEEDS); do \
		for w in inproc-k4 inproc-k64 inproc-tenants512 procs-k16; do \
			bash benchmark/run.sh --workload $$w --seed $$s --seconds $(BENCH_E2E_SECONDS) --trace 0 --out $(BENCH_E2E_OUT) || exit 1; \
		done; \
	done
	if [ -n "$(BENCH_E2E_BASE)" ]; then bash benchmark/run.sh -compare $(BENCH_E2E_BASE) $(BENCH_E2E_OUT); fi

# cover enforces the coverage floors: telemetry >= 90%, the GF kernel
# package >= 85%, each new concurrency/lifecycle analyzer
# package >= 80% (their golden suites must actually exercise the rules),
# repo-wide >= 70%, and per-file floors on the generation index
# (sessionstore.go) and the batched UDP wire path.
cover:
	$(GO) build -o bin/covercheck ./cmd/covercheck
	$(GO) test -coverprofile=cover.out ./...
	./bin/covercheck -profile cover.out -total 70 -floor ncfn/internal/telemetry=90 \
		-floor ncfn/internal/gf=85 \
		-floor ncfn/internal/analysis/lockorder=80 \
		-floor ncfn/internal/analysis/rcucheck=80 \
		-floor ncfn/internal/analysis/syscallcheck=80 \
		-floor ncfn/internal/analysis/telemetrycheck=80 \
		-floor ncfn/internal/analysis/tagparity=80 \
		-filefloor ncfn/internal/dataplane/sessionstore.go=80 \
		-filefloor ncfn/internal/emunet/udp.go=80 \
		-filefloor ncfn/internal/emunet/udp_mmsg_linux.go=80 \
		-filefloor ncfn/internal/dataplane/txring.go=80 \
		-filefloor ncfn/internal/dataplane/drain.go=80 \
		-filefloor ncfn/internal/controller/lifecycle.go=80 \
		-filefloor ncfn/internal/controller/deployfile.go=80 \
		-filefloor ncfn/internal/controller/admin.go=80

check: build lint test test-portable test-race
