# PinSQL build/test/verification entry points. CI (.github/workflows/ci.yml)
# runs build + vet + test + race; fuzz-smoke is a short native-fuzzing slice
# over the SQL normalizer, the storage codecs, the log-file readers, the
# window log's arrangement, the collector's window log, a frame group's
# sort, the segment store's
# seal paths, the session estimator and its AVX2 walk kernel, the sparse
# series' correlations and the pair scan's AVX kernel.

GO ?= go

.PHONY: all build test race vet fmt-check loc docs-size fuzz-smoke fuzz-search test-corpus bench bench-aa bench-parallel smoke-serve clean

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The full suite under the race detector, every package once; includes the
# broker concurrency suite (internal/collect/broker_race_test.go), the
# Workers-equivalence property tests and the adversarial search's.
race:
	$(GO) test -race -timeout 30m ./...

vet:
	$(GO) vet ./...

# Fails on any file gofmt would rewrite, printing its name.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "$$out"; exit 1; fi

# Lines of Go by kind: what runs (non-test, outside benchmark/), what
# checks it, and the benchmark.
loc:
	@echo "non-test .go outside benchmark/: $$(git ls-files '*.go' | grep -v '^benchmark/' | grep -v '_test\.go$$' | xargs cat | wc -l)"
	@echo "_test.go outside benchmark/:     $$(git ls-files '*.go' | grep -v '^benchmark/' | grep '_test\.go$$' | xargs cat | wc -l)"
	@echo "benchmark/:                      $$(git ls-files 'benchmark/*.go' | xargs cat | wc -l)"

# Fails when DESIGN, EXPERIMENTS, CHANGES or README outgrow their byte
# budgets, or the last CHANGES.md entry exceeds 1.5 KB. The budgets, and
# the rule that they only go down, are in the script.
docs-size:
	@./scripts/docs_size.sh

# Short fuzzing campaigns: sqltemplate.Normalize (panic-freedom,
# idempotence, stable template IDs, agreement with the tokenize-collapse-join
# normalizer it replaced, Fingerprint == FNV-1a of the text), the segment
# store's record codec (round-trip, canonical re-encode, CRC corruption
# rejection), the repro-bundle parsers (manifest + case document, canonical
# re-encode and frame idempotence), the slow-log ingestion parser
# (panic-freedom, UTF-8 validity, trace-codec round trip, agreement with the
# string-based parser it replaced), the slow log's "# Time:" stamp read
# from its bytes (agreement with time.Parse), the positional trace-line
# decoder (agreement with encoding/json on every line it accepts), the in-place
# decimal conversion (bit-equal to strconv.ParseFloat), the window log's
# arrangement (any chunk list in completion order, arranged by
# ArrangeCounted, is the stable comparison sort, and a store cuts it into
# chunks of the shapes it promises), the collector's window log (any records
# and batch cuts, one seal: the sealed frame is the independent reference's,
# each group the arranged array's rows of its template, the arranged array
# the stable sort, and the store handed it at the seal scans it back), a
# frame group's sort (the permutation sort's result, falling back or not),
# the segment
# store's seal (any batches, stragglers refused, with seals — each a renamed
# wal —, Expire, TruncateFrom and reopens scan back as the in-memory
# store's), the three frame session estimators (the sparse
# series expanded is bit-equal to the dense references, the bucketed one's
# the map-keyed all-buckets walk), the estimator's compaction of a
# template's touched seconds, and the sparse series' sums and correlations
# (bit-equal to the dense ones for any x, y and w, NaN, ±Inf, −0 and
# negatives included), and the pair scan's AVX kernel (its prefix sums and
# survivor bits equal the Go panel scan's, bit for bit, for any values,
# column count, length and checkpoint; skipped on a CPU without AVX).
# Long campaigns: raise -fuzztime.
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzNormalize -fuzztime=10s ./internal/sqltemplate
	$(GO) test -run=^$$ -fuzz=FuzzRecordCodec -fuzztime=10s ./internal/logstore/segment
	$(GO) test -run=^$$ -fuzz=FuzzFrameParser -fuzztime=5s ./internal/logstore/segment
	$(GO) test -run=^$$ -fuzz=FuzzSealPaths -fuzztime=5s ./internal/logstore/segment
	$(GO) test -run=^$$ -fuzz=FuzzReproBundle -fuzztime=5s ./internal/caseio
	$(GO) test -run=^$$ -fuzz=FuzzSlowLogParser -fuzztime=10s ./internal/ingest
	$(GO) test -run=^$$ -fuzz=FuzzSlowLogStamp -fuzztime=5s ./internal/ingest
	$(GO) test -run=^$$ -fuzz=FuzzTraceLine -fuzztime=10s ./internal/ingest
	$(GO) test -run=^$$ -fuzz=FuzzParseDecimal -fuzztime=5s ./internal/ingest
	$(GO) test -run=^$$ -fuzz=FuzzLooseOrder -fuzztime=5s ./internal/logstore
	$(GO) test -run=^$$ -fuzz=FuzzWindowLog -fuzztime=5s ./internal/collect
	$(GO) test -run=^$$ -fuzz=FuzzSortObsGroup -fuzztime=5s ./internal/window
	$(GO) test -run=^$$ -fuzz=FuzzEstimateShortPath -fuzztime=10s ./internal/session
	$(GO) test -run=^$$ -fuzz=FuzzFillCompact -fuzztime=5s ./internal/session
	$(GO) test -run=^$$ -fuzz=FuzzBucketWalk -fuzztime=10s ./internal/session
	$(GO) test -run=^$$ -fuzz=FuzzSparseCorr -fuzztime=5s ./internal/timeseries
	$(GO) test -run=^$$ -fuzz=FuzzPanelScan -fuzztime=5s ./internal/rootcause

# Adversarial workload search: a seed-driven bandit over injection
# parameters hunts diagnosis misranks, minimizes each miss, and writes
# repro bundles under fuzz-corpus/. Runs twice at different worker counts
# and exits non-zero if the trajectories diverge (determinism contract).
# Writes BENCH_fuzz.json. Widen the hunt: make fuzz-search FUZZ_BUDGET=64.
FUZZ_BUDGET ?= 0
fuzz-search:
	$(GO) run ./cmd/pinsql-bench -exp fuzz -small -seed 1 \
		-fuzz-budget $(FUZZ_BUDGET) -corpus-dir fuzz-corpus

# Replay every committed repro bundle through the diagnosis pipeline and
# assert the recorded verdicts byte-for-byte.
test-corpus:
	$(GO) test -run TestFuzzCorpusRegression -v ./internal/fuzz

# The repository's one benchmark (BENCHMARK.json, benchmark/README.md):
# four recorded workloads through the unchanged pipeline, untraced for the
# end-to-end metrics, then traced for the per-layer ones; exits non-zero on
# a failed output check. Several minutes.
bench:
	$(GO) run ./benchmark

# The untraced suite twice, compared against the bounds of BENCHMARK.json:
# what the host's run-to-run spread allows a comparison to resolve.
bench-aa:
	$(GO) run ./benchmark -aa

# Parallel-pipeline speedup sweep (Workers in {1, 2, 4, NumCPU}) on a
# ~4000-template case.
bench-parallel:
	$(GO) test -run=^$$ -bench=BenchmarkDiagnoseParallel -benchtime=3x .

# Control-plane smoke, two phases: boot pinsqld -serve with a
# 4-instance 2-shard fleet, curl /fleet and /metrics, SIGTERM, assert a
# clean drain (exit 0); then the same fleet with -role coordinator
# (one worker process per shard), SIGKILL a worker, assert the
# supervisor respawns it, and assert the drain also stops the workers.
smoke-serve:
	./scripts/smoke_serve.sh

clean:
	$(GO) clean ./...
