# CI entry points. `make ci` is vet + build + lint + race-enabled
# tests. The GitHub Actions workflow runs the same checks as separate
# steps (go vet, go build, `make lint`, `make lint-bench`, go test
# -race, then the lock-free lead-read stress `make race-reads`, the
# index's concurrent-read stress `make race-index` and the extraction
# kernel's stress `make race-extract`), then
# `make doccheck`, `make examples`, `make fmt-check`, the benchmark
# module's vet and tests (`make bench-check`), one run of every
# benchmark (`make bench`) and a time-boxed pass of every fuzz target
# (`make fuzz`).

GO ?= go

.PHONY: ci vet build lint lint-bench test race race-reads race-index race-extract bench bench-check fuzz bench-index bench-alert bench-trace doccheck examples fmt-check

ci: vet build lint race

# go vet covers the generic checks (including copylocks, which catches
# mutexes copied by value in any position); etaplint layers the
# repo-specific invariants on top — see LINTING.md for the catalog.
vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# Repo-aware static analysis: the six syntactic rules plus the
# flow-aware concurrency rules (goroutine-lifecycle, lock-order,
# channel-discipline). The committed baseline makes the gate "no new
# findings": anything recorded in .etaplint-baseline.json is tolerated,
# anything fresh fails. Regenerate after paying down baselined debt
# with `go run ./cmd/etaplint -baseline .etaplint-baseline.json
# -write-baseline ./...`.
lint:
	$(GO) run ./cmd/etaplint -baseline .etaplint-baseline.json ./...

# Lint wall-clock budget: the flow-aware rules type-check and analyze
# the whole repo, so a full run must stay under 30 seconds. Always
# writes the machine-readable findings to lint-findings.json, which CI
# attaches as an artifact when the job fails.
lint-bench:
	@start=$$(date +%s); \
	$(GO) run ./cmd/etaplint -json ./... > lint-findings.json; code=$$?; \
	end=$$(date +%s); dur=$$((end - start)); \
	echo "lint-bench: etaplint ./... took $${dur}s (budget 30s), exit $$code"; \
	if [ $$code -ge 2 ]; then exit $$code; fi; \
	if [ $$dur -gt 30 ]; then echo "lint-bench: exceeded 30s wall-clock budget"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Lead reads walk the store's published snapshots without a lock, so
# the tests that interleave writers, reviews and readers of every lead
# endpoint run 20 times under the race detector (about 15 s on 2 vCPUs).
race-reads:
	$(GO) test -race -count=20 -run 'TestSnapshotsUnderConcurrentWrites|TestLeadReadsConcurrentWithWrites' ./internal/store ./internal/serve

# Segment-index reads decode postings into pooled scratch while
# writers append to memtables and flushes and merges swap parts, and a
# bulk load appends lane by lane while both engines serve searches and
# Has, so the tests that interleave them run 10 times under the race
# detector (about 45 s on 2 vCPUs).
race-index:
	$(GO) test -race -count=10 -run 'TestSegmentConcurrentIngestSearchMerge|TestScratchConcurrentReaders|TestMemtableConcurrentReaders|TestBulkLoadConcurrentSearch' ./internal/index

# Batch and streaming extraction score snippets in pooled per-worker
# scratch and share the batch stash, and every annotating goroutine
# loads and replaces the word table's entries, so the tests that run
# them concurrently on one System, and the test that races lookups of
# words sharing a word-table set, run 10 times under the race detector
# (about 20 s on 2 vCPUs).
race-extract:
	$(GO) test -race -count=10 -run 'TestBatchExtractionConcurrent|TestBatchAndStreamingShareSystem|TestLexConcurrentCollidingWords' ./internal/core ./internal/textproc

# One pass over every benchmark (quality numbers + observability
# overhead). CI runs it so the benchmarks that size performance claims
# (BenchmarkWorld, BenchmarkIndexSearch, BenchmarkExtractEvents*) keep
# compiling and running.
bench:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

# The end-to-end benchmark (etapbench/, see BENCHMARK.json) is a module
# of its own, so ./... above never reaches it: vet it and run its unit
# tests and smoke-sized workloads here.
bench-check:
	cd etapbench && $(GO) vet ./... && $(GO) test ./...

# Time-boxed fuzzing: every native `Fuzz*` target in the module runs
# for 5 seconds on top of its seed corpus (testdata/fuzz). `go test
# -fuzz` takes one target per run, so the targets are found by name. A
# failing input is written to the package's testdata/fuzz directory,
# ready to commit as a regression seed.
fuzz:
	@set -e; for f in $$(grep -rl --include='*_test.go' --exclude-dir=etapbench --exclude-dir=.bench_build --exclude-dir=testdata '^func Fuzz' .); do \
		for name in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $$f); do \
			echo "fuzz: $$name in $$(dirname $$f) for 5s"; \
			$(GO) test -run '^$$' -fuzz "^$$name\$$" -fuzztime 5s $$(dirname $$f); \
		done; \
	done

# Index scaling harness: measures the segment engine against the
# in-RAM baseline over a 50k-doc synthetic corpus — concurrent bulk add
# at 1/2/4/8 writers, cold start (manifest re-open vs rebuild), and
# mmap-served vs cached search — and writes the machine-readable report
# to BENCH_index.json. Doubles as the perf regression gate: the run
# fails if concurrent bulk add loses to sequential at any writer count
# or segment-served rankings diverge from the in-RAM engine's.
bench-index:
	ETAP_BENCH_INDEX=$(CURDIR)/BENCH_index.json $(GO) test ./internal/index -count=1 -run TestIndexBenchHarness -v

# Ingest-throughput harness: pushes a trigger-dense synthetic document
# stream through the alert manager at one worker and at GOMAXPROCS
# workers, and writes the machine-readable report to BENCH_alert.json.
bench-alert:
	ETAP_BENCH_ALERT=$(CURDIR)/BENCH_alert.json $(GO) test ./internal/alert -run TestAlertBenchHarness -v

# Tracing-overhead harness: runs the same ingest stream with tracing
# off and on (tail sampling at 0.25), fails if the median per-round
# slowdown exceeds 5%, and writes the report to BENCH_trace.json.
bench-trace:
	ETAP_BENCH_TRACE=$(CURDIR)/BENCH_trace.json $(GO) test ./internal/alert -count=1 -run TestTraceBenchHarness -v

# Doc-comment lint: every exported symbol must carry a godoc comment,
# enforced by etaplint's doc-comments rule over the whole repository.
# Then every backticked Test…, Fuzz… or Benchmark… name the design and
# operations documents cite must be a function in some _test.go file;
# a name with a `*` is a pattern and is not checked. CHANGES.md is left
# out: it records tests that were later removed.
TEST_NAME_DOCS = STORAGE.md DESIGN.md ARCHITECTURE.md OPERATIONS.md EXPERIMENTS.md

doccheck:
	$(GO) run ./cmd/etaplint -rules doc-comments ./...
	@defined=$$(grep -rhoE --include='*_test.go' --exclude-dir=.git --exclude-dir=.bench_build '^func (Test|Fuzz|Benchmark)[A-Za-z0-9_]*' . | sed 's/^func //' | sort -u); \
	status=0; \
	for cite in $$(grep -onE '`(Test|Fuzz|Benchmark)[A-Za-z0-9_*]+' $(TEST_NAME_DOCS)); do \
		name=$${cite##*\`}; \
		case $$name in *'*'*) continue;; esac; \
		if ! printf '%s\n' "$$defined" | grep -qx "$$name"; then \
			echo "doccheck: $${cite%%:\`*} cites $$name, which no _test.go file defines"; status=1; \
		fi; \
	done; \
	exit $$status

# The examples are documentation too — keep them compiling.
examples:
	$(GO) build ./examples/...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi
