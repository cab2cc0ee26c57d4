GO ?= go

# Build stamp surfaced by the mobiledl_build_info metric and the server
# banner. Defaults to the tag/commit when building from a git checkout.
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
LDFLAGS := -ldflags "-X mobiledl/internal/version.Version=$(VERSION)"

.PHONY: all build test race fuzz vet lint analyze loadcheck tracecheck crashcheck simcheck sim-full cluster-up cluster-check fmt docs-check cover bench serve-bench bench-suite bench-compare

all: build test vet

build:
	$(GO) build $(LDFLAGS) ./...

test:
	$(GO) test ./...

# Race-check the concurrent subsystems: the serving runtime and its
# instrumentation, the fedserve train-to-serve coordinator, parallel
# federated training (plain and DP), and the shared tensor substrate
# (buffer pool + GOMAXPROCS-parallel matmul kernels) with the nn and split
# consumers that pool scratch.
race:
	$(GO) test -race ./internal/serve/... ./internal/fedserve/... ./internal/metrics/... \
		./internal/store/... ./internal/cluster/... ./internal/wire/... ./cmd/mobiledlserve/... \
		./internal/federated/... ./internal/privacy/... ./internal/sim/... \
		./internal/tensor/... ./internal/nn/... ./internal/split/...

# Fuzz every Fuzz* target of the module in turn, FUZZTIME each (go test
# -fuzz takes one target of one package per run). The seeds each target adds
# also run as plain tests under `make test`; a crasher lands in the package's
# testdata/fuzz/ and is committed with its fix.
FUZZTIME ?= 30s
fuzz:
	@set -e; \
	for dir in $$(grep -rl --include='*_test.go' --exclude-dir=tools '^func Fuzz' . | xargs -n1 dirname | sort -u); do \
		for target in $$(grep -ho '^func Fuzz[A-Za-z0-9_]*' $$dir/*_test.go | cut -c6-); do \
			echo "== fuzz $$dir $$target ($(FUZZTIME))"; \
			$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime $(FUZZTIME) $$dir; \
		done; \
	done

vet:
	$(GO) vet ./...

# Static analysis beyond vet. CI installs staticcheck (pinned) and runs with
# STRICT_LINT=1 so a missing binary fails the job; locally the target
# degrades to a notice instead of failing.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	elif [ "$(STRICT_LINT)" = "1" ]; then \
		echo "STRICT_LINT=1 but staticcheck is not installed" >&2; exit 1; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

# Project-specific invariant suite (tools/analyzers): pool balance,
# determinism (no wall clock / global rand in sim+federated+fedserve),
# context propagation on the serving hot path, and /metrics naming. The
# tools module is separate so the main module stays zero-dependency; its
# own tests run via `go -C tools/analyzers test ./...`.
analyze:
	$(GO) -C tools/analyzers run ./cmd/analyze \
		-dir $(CURDIR) -nowallclock.allowlist $(CURDIR)/.nowallclock-allow ./...

# Overload/deadline drill: the admission-control, cancellation, and drain
# tests under the race detector — the serving runtime's survival story —
# plus the batcher's exactly-once property test and the request-budget
# derivation.
loadcheck:
	$(GO) test -race -run 'Overload|Shed|Expired|Abandoned|Drain|QueueFull|RateWindow|Timeout|QuantileEdges|Prom|ExactlyOnce|Budget' \
		./internal/serve/... ./internal/metrics/...

# Tracing drill: the tracer package and every instrumented layer under the
# race detector (64-way concurrent trace integrity through sub-batch splits,
# traceparent propagation, tail retention churn, round traces), then the
# overhead gate — serving with a sampled-out tracer must stay within 5% of
# serving with no tracer at all.
tracecheck:
	$(GO) test -race ./internal/trace/...
	$(GO) test -race -run 'Trace|Healthz|BuildInfo|BatchErrorLogged' \
		./internal/serve/... ./internal/fedserve/...
	MOBILEDL_TRACECHECK=1 $(GO) test -run TestTraceOverhead -v .

# Crash-safety drill: the WAL store's full suite (framing, torn-tail
# recovery, fault injection, compaction crash ordering), the kill-recover
# matrix against a real registry, coordinator checkpoint/resume, the
# registry/server degradation seam, the process-scope restart and
# shutdown-ordering tests, and the weights/CSR decoders that recovery
# trusts with on-disk bytes — all under the race detector.
crashcheck:
	$(GO) test -race ./internal/store/...
	$(GO) test -race -run 'Weights|DecodeCSR' ./internal/nn/... ./internal/compress/...
	$(GO) test -race -run 'Crash|KillRecover|Failpoint|Torn|Degrad|Recover|Resume|Backup|Checkpoint|Restart|Shutdown' \
		./internal/serve/... ./internal/fedserve/... ./cmd/mobiledlserve/...

# Scenario-simulation drill: the full named-scenario matrix (baseline,
# 30% dropout, 10% poisoned, clock skew, diurnal burst) at 100k virtual
# clients under the race detector, plus the selector and scrape-helper
# suites the harness leans on. The committed SIMBENCH_*.md files come from
# the heavier sim-full target below.
simcheck:
	MOBILEDL_SIMCHECK=1 $(GO) test -race ./internal/sim/...
	$(GO) test -race -run 'Selector|Scrape|ParseProm|Quantile' \
		./internal/fedserve/... ./internal/metrics/...

# Full-scale scenario benchmark: every named scenario at 500k virtual
# clients through cmd/fedsim, writing the dated SIMBENCH report that gets
# committed alongside the PR.
sim-full:
	$(GO) run ./cmd/fedsim -full -out SIMBENCH_$$(date -u +%Y-%m-%d).md
	@ls -l SIMBENCH_*.md

# Boot a local 3-node cluster (consistent-hash sharded demo models, gossip
# membership, transparent forwarding) and leave it running for interactive
# poking; Ctrl-C tears it down.
cluster-up:
	$(GO) build $(LDFLAGS) -o mobiledlserve ./cmd/mobiledlserve
	$(GO) run ./cmd/clustercheck -bin ./mobiledlserve -mode up

# Cluster acceptance drill: solo-baseline vs 3-node aggregate throughput
# (>= 2x required), SIGKILL one node mid-load with every model staying
# servable through the survivors, and no mixed model versions anywhere.
# The committed CLUSTERBENCH_*.md files are this target's output.
cluster-check:
	$(GO) build $(LDFLAGS) -o mobiledlserve ./cmd/mobiledlserve
	$(GO) run ./cmd/clustercheck -bin ./mobiledlserve -mode check

# Coverage summary: per-function table plus the total, written from a
# throwaway profile (cover.out is gitignored by convention, not committed).
# CI runs this as a non-blocking report step.
cover:
	$(GO) test -covermode=atomic -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -n 25
	@echo "full per-function table: go tool cover -func=cover.out"

fmt:
	gofmt -l -w .

# Docs gate (CI docs job): every inline relative markdown link must resolve
# and the tree must be gofmt-clean — including the tools/analyzers module,
# which gofmt -l . reaches by path and vet needs a -C for. gofmt -l prints
# offenders without rewriting; the shell check turns a non-empty listing
# into a failing exit.
docs-check:
	$(GO) run ./cmd/docscheck
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi
	$(GO) -C tools/analyzers vet ./...

# Full benchmark sweep (paper artifacts + substrate micro-benches).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# Serving throughput at max batch sizes 1/8/32 (requests/sec), plus the
# traced variants (sampled-out / sampled-all) for trace overhead numbers:
# the unanchored pattern matches BenchmarkServeThroughputTraced as well.
serve-bench:
	$(GO) test -run '^$$' -bench BenchmarkServeThroughput -benchtime 2s .

# The repository benchmark (bench/README.md): four end-to-end workloads, a
# fresh process each, results in bench/out/. BENCH_ARGS passes extra flags,
# e.g. BENCH_ARGS='-seconds 4' for a short run or '-traced' for the ladder.
bench-suite:
	$(GO) run ./bench -seed 1 $(BENCH_ARGS)

# Diff two result files of bench-suite: NEW against its base BASE (ratio,
# bound, ok / worse / unresolved; exit 1 on worse). With BASE alone, the
# spread table of that file.
bench-compare:
	$(GO) run ./bench -compare $(BASE) $(NEW)
