# elevprivacy build targets.

GO ?= go

.PHONY: all build vet staticcheck test test-short perfbench-test check bench bench-train bench-full experiments experiments-quick smoke-resume obs-smoke orch-smoke shard-smoke ingest-smoke fleet-smoke clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

## staticcheck runs honnef.co/go/tools if the binary is on PATH and degrades
## to a notice otherwise — the repo vendors nothing and offline containers
## cannot install it, so its absence must not fail the gate.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

## perfbench-test builds and tests the benchmark (perfbench/), a Go module
## of its own that ./... never compiles although it calls the library's
## internal packages. -short skips the tests that train attacks; it runs
## offline in about 15 s.
perfbench-test:
	cd perfbench && GOFLAGS= GOWORK=off $(GO) test -short ./...

## check is the full gate, run by CI on every PR (.github/workflows/ci.yml):
## the tier-1 build/vet/test sequence, the benchmark module's build and
## tests, plus the race detector over every package (the batch kernels, the
## forest pool, the concurrent k-fold, and the httpx/miner concurrency all
## fan out goroutines). The raised timeout covers the race detector's
## ~10-20x slowdown on the experiment suites.
check: build vet staticcheck test perfbench-test
	$(GO) test -race -timeout 45m ./...

## smoke-resume proves the crash-safety contract end to end: a SIGKILLed
## mining run, resumed from its journal, produces byte-identical output to an
## uninterrupted run. CI runs it non-gating (kill timing on shared runners is
## noisy); locally it is a quick sanity check after touching internal/durable.
smoke-resume:
	sh scripts/crash_resume_smoke.sh

## obs-smoke proves the telemetry layer against a live sweep: /metrics is
## scraped mid-run and must expose the httpx/pool/journal series in valid
## Prometheus exposition shape, and -trace-out must produce a well-formed
## Chrome trace. CI runs it non-gating (scrape timing on shared runners is
## noisy); locally it is the sanity check after touching internal/obs.
obs-smoke:
	sh scripts/obs_smoke.sh

## orch-smoke proves the scenario orchestrator end to end: a multi-scenario
## spec run against the admin API, SIGKILLed mid-sweep, resumed to
## byte-identical results, then rerun against the artifact cache (hits > 0,
## zero re-issued HTTP calls), and finally canceled gracefully over HTTP.
## CI runs it non-gating (kill/cancel timing on shared runners is noisy);
## locally it is the sanity check after touching internal/scenario.
orch-smoke:
	sh scripts/orchestrator_smoke.sh

## shard-smoke proves the sharded serving tier end to end: four shard
## replicas behind consistent-hash pools, a mining sweep that survives a
## SIGKILL of one shard mid-run with byte-identical output, pool failover
## metrics, a nonzero serving-cache hit rate on the warm survivors, and
## per-endpoint balance within 2x. CI runs it non-gating (kill timing on
## shared runners is noisy); locally it is the sanity check after touching
## internal/httpx pooling or internal/serving.
shard-smoke:
	sh scripts/shard_smoke.sh

## ingest-smoke proves the live-attack ingestion pipeline's crash-recovery
## contract end to end: a firehose client streams 400 activities at an
## elevingest server with a stalled classifier, the server is SIGKILLed
## with spilled activities in the journal, a restart on the same state
## directory restores and replays the backlog, and the final results dump
## must hold every activity exactly once, byte-identical to the offline
## batch path. CI runs it non-gating (kill timing on shared runners is
## noisy); locally it is the sanity check after touching internal/ingest.
ingest-smoke:
	sh scripts/ingest_smoke.sh

## fleet-smoke proves the fleet observability layer end to end: four traced
## shard replicas plus the ingest server and a faulted mining sweep, all
## federated by elevobs. The merged Chrome trace must hold parent-linked
## spans from five processes, fleet counters must equal the sum of the
## per-instance counters, and the injected-fault SLO breach must produce a
## structured alert plus a captured pprof profile. CI runs it non-gating
## (scrape/kill timing on shared runners is noisy); locally it is the
## sanity check after touching internal/obs, internal/httpx propagation,
## or internal/fleetobs.
fleet-smoke:
	sh scripts/fleet_smoke.sh

## bench runs every experiment benchmark at smoke scale plus the substrate
## micro-benchmarks, then the text-pipeline, training, serving-tier, and
## ingestion comparison harnesses, which measure the legacy paths against
## the current ones and write BENCH_textpipeline.json / BENCH_train.json /
## BENCH_serving.json / BENCH_ingest.json.
bench:
	$(GO) test -bench=. -benchmem ./...
	$(GO) run ./cmd/textbench -out BENCH_textpipeline.json
	$(GO) run ./cmd/trainbench -out BENCH_train.json
	$(GO) run ./cmd/servebench -out BENCH_serving.json
	$(GO) run ./cmd/ingestbench -out BENCH_ingest.json

## bench-train runs only the training-path harness: the frozen per-sample
## MLP trainer against the batched float64/float32/sparse paths and the
## SVM dense path against its sparse one, with built-in bit-exactness
## checks, writing BENCH_train.json.
bench-train:
	$(GO) run ./cmd/trainbench -out BENCH_train.json

## bench-full runs the experiment benchmarks at the laptop scale that
## EXPERIMENTS.md records (tens of minutes).
bench-full:
	ELEVPRIVACY_BENCH_SCALE=full $(GO) test -bench=. -benchmem .

## experiments regenerates every paper table and figure.
experiments:
	$(GO) run ./cmd/experiments

experiments-quick:
	$(GO) run ./cmd/experiments -quick

clean:
	$(GO) clean ./...
