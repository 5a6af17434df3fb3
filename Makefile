GO ?= go

## COVER_FLOOR: minimum statement coverage (percent) for the core
## packages gated by `make cover`. The engine package carries a higher
## floor, a few points under what its own suite measures (about 85%),
## so deleting a test that held real coverage fails `make cover`.
COVER_FLOOR ?= 60
COVER_FLOOR_SQLDB ?= 80
## The XML lexer and DOM builder likewise sit a few points under their
## suite's measure (about 91%): the golden corpus and the chunked-read
## fuzz seeds reach nearly every branch of the one lexer.
COVER_FLOOR_XMLDOM ?= 88

## FUZZ_TIME: per-target budget for `make fuzz` (short by design — the
## seed corpora already run as plain tests under `make test`).
FUZZ_TIME ?= 5s

.PHONY: check vet build test race cover bench-smoke benchmark-smoke bench fuzz crash chaos pmatrix concurrency writers server

## check: the full CI gate — vet (with the test-selector audit), build,
## tests (race-enabled where it matters), the engine suite across a
## GOMAXPROCS matrix, the snapshot isolation battery, per-package
## coverage floors, the fault-injection and chaos batteries, short fuzz
## sessions, a one-shot run of the query-cache benchmark, and the
## repository benchmark's smoke test. Every store runs the pooled heap,
## and the differential and crash batteries take the pool cap as a
## table input (unbounded and a two- or three-page pool), so the plain
## suite covers bounded memory too.
check: vet build test race pmatrix concurrency writers server cover crash chaos fuzz bench-smoke benchmark-smoke

## vet: static checks — go vet, and scripts/check-selectors.sh, which
## fails when any alternative of any -run/-fuzz/-bench pattern below
## matches no test in its packages (`go test -list`), so a renamed or
## deleted test cannot silently shrink a gate.
vet:
	$(GO) vet ./...
	GO=$(GO) bash scripts/check-selectors.sh Makefile

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## race: the data-race gate for the concurrent query/DDL paths (the
## full suite under -race is covered by `test` + these two packages,
## which hold all shared mutable state).
race:
	$(GO) test -race ./internal/sqldb ./internal/core ./internal/lru

## pmatrix: the engine suite (including the parallel-vs-serial
## differential battery) at GOMAXPROCS 1, 2 and 4 — morsel-parallel
## execution must return byte-identical results at every width.
pmatrix:
	@for p in 1 2 4; do \
		echo "pmatrix: GOMAXPROCS=$$p"; \
		GOMAXPROCS=$$p $(GO) test -count=1 ./internal/sqldb || exit 1; \
	done

## concurrency: the snapshot-isolation gate — the reconstruction-
## during-updates differential (snapshot XML byte-identical to serial
## replay at every commit boundary, DOP 1/4/16), query cancellation,
## and the concurrent cached-query/DDL races, under -race across a
## GOMAXPROCS matrix.
concurrency:
	@for p in 1 2 4; do \
		echo "concurrency: GOMAXPROCS=$$p"; \
		GOMAXPROCS=$$p $(GO) test -race -count=1 \
			-run 'TestSnapshotReconstructDuringUpdates|TestQueryContextCancel|TestConcurrentCachedQueriesWithDDL|TestParallelQueriesUnderConcurrentMutations' \
			./internal/sqldb ./internal/core || exit 1; \
	done

## writers: the group-commit race battery — N writer goroutines with
## concurrent DDL, checkpoints and a durability group against one WAL,
## plus the batch-fault and mid-group crash regressions, under -race.
writers:
	@for p in 1 2 4; do \
		echo "writers: GOMAXPROCS=$$p"; \
		GOMAXPROCS=$$p $(GO) test -race -count=1 \
			-run 'TestConcurrentWritersDDLCheckpoint|TestConcurrentCommitFaultAckedSurvive|TestGroupConcurrentCommits|TestGroupCommitBatches|TestBatchFsyncFault|TestDurableStoreConcurrentExecDuringLoad' \
			./internal/sqldb ./internal/core || exit 1; \
	done

## server: the network front-door battery — 64 concurrent pinned
## sessions over HTTP running the F1 mix, the line protocol with
## drop-releases-pin, overload 429s, graceful-shutdown drain and the
## post-Close typed-error taxonomy, under -race across a GOMAXPROCS
## matrix. Proves zero leaked snapshot pins after shutdown.
server:
	@for p in 1 2 4; do \
		echo "server: GOMAXPROCS=$$p"; \
		GOMAXPROCS=$$p $(GO) test -race -count=1 ./internal/server || exit 1; \
	done

## cover: per-package statement-coverage floors for the packages that
## hold the engine (sqldb), the mappings (shred), the façade (core) and
## the XML data model with its streaming tokenizer (xmldom).
cover:
	@for entry in "./internal/sqldb $(COVER_FLOOR_SQLDB)" "./internal/shred $(COVER_FLOOR)" "./internal/core $(COVER_FLOOR)" "./internal/xmldom $(COVER_FLOOR_XMLDOM)"; do \
		pkg=$${entry% *}; floor=$${entry#* }; \
		pct=$$($(GO) test -cover $$pkg | awk '{for (i=1;i<=NF;i++) if ($$i == "coverage:") {sub(/%/,"",$$(i+1)); print $$(i+1)}}'); \
		if [ -z "$$pct" ]; then echo "cover: no coverage reported for $$pkg" >&2; exit 1; fi; \
		echo "cover: $$pkg $$pct% (floor $$floor%)"; \
		if awk "BEGIN{exit !($$pct < $$floor)}"; then \
			echo "cover: $$pkg coverage $$pct% is below the $$floor% floor" >&2; exit 1; \
		fi; \
	done

## crash: the durability gate — the crash-at-every-offset fault
## injection sweeps (unbounded and under a small pool, across a
## pages-file switch), the commit-failure rollback regressions, recovery
## after a failed pages-file switch, and the concurrent-commit recovery
## tests (unbounded and evicting), under the race detector.
crash:
	$(GO) test -race -run 'TestCrash|TestCommitFault|TestConcurrentCommits|TestDurable|TestBatchFsyncFault|TestGroupConcurrentCommits|TestRotateFailure|TestCheckpointInsideGroup|TestNestedGroup|TestDegraded|TestGroupFaultDegradedRecover|TestRecoverAfterFailedPagesSwitch|TestClose|TestSnapshotReleaseIdempotent' ./internal/sqldb ./internal/core

## chaos: the resource-governor / fail-safe gate — concurrent writers
## and governed queries (memory budgets, admission control, injected
## worker panics, canceled contexts) against a mid-flight ENOSPC fault,
## through degraded read-only mode and Recover, under -race across a
## GOMAXPROCS matrix. Proves ack-implies-durable and that no abort or
## panic path wedges a lock or leaks a reservation.
chaos:
	@for p in 1 2 4; do \
		echo "chaos: GOMAXPROCS=$$p"; \
		GOMAXPROCS=$$p $(GO) test -race -count=1 \
			-run 'TestChaosGovernedConcurrency|TestMorselWorkerPanicFailsOnlyThatQuery|TestWriterPanicReleasesLocks|TestBudgetAbortLeavesConcurrentTrafficUnaffected|TestAdmissionControlEndToEnd' \
			./internal/sqldb || exit 1; \
	done

## fuzz: short fuzzing sessions for every fuzz target (SQL parser,
## snapshot loader, WAL replay, index key codec, LIKE matcher against
## its recursive reference, XML lexer under chunked reads, Interval
## store vs the DOM). Each
## -fuzz invocation accepts one target, so they run sequentially; raise
## FUZZ_TIME for a real session.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZ_TIME) ./internal/sqldb
	$(GO) test -run '^$$' -fuzz '^FuzzLoadFrom$$' -fuzztime $(FUZZ_TIME) ./internal/sqldb
	$(GO) test -run '^$$' -fuzz '^FuzzWALReplay$$' -fuzztime $(FUZZ_TIME) ./internal/sqldb
	$(GO) test -run '^$$' -fuzz '^FuzzKeyOrder$$' -fuzztime $(FUZZ_TIME) ./internal/sqldb
	$(GO) test -run '^$$' -fuzz '^FuzzLike$$' -fuzztime $(FUZZ_TIME) ./internal/sqldb
	$(GO) test -run '^$$' -fuzz '^FuzzParseChunked$$' -fuzztime $(FUZZ_TIME) ./internal/xmldom
	$(GO) test -run '^$$' -fuzz '^FuzzXPathVsDOM$$' -fuzztime $(FUZZ_TIME) ./internal/core

## bench-smoke: executes BenchmarkQueryCache once and BenchmarkPageDecode
## (which fails above four allocations per page), to keep them compiling
## and running; use `make bench` for real numbers. The per-scheme ordered
## inserts (edge, binary, interval, dewey, inline) run in `make test`:
## TestRunAllQuick drives every xbench experiment, and F3 fails on any
## insert error.
bench-smoke:
	$(GO) test ./internal/bench -run '^$$' -bench QueryCache -benchtime 1x
	$(GO) test ./internal/sqldb -run '^$$' -bench PageDecode -benchtime 1x

## benchmark-smoke: the repository benchmark's smoke test (benchmark/,
## its own module) — all four workloads at factor 0.02 in sub-second
## windows, about 8 s, offline. Drift in the engine API benchmark/sut.go
## uses fails here instead of only in the benchmark driver.
benchmark-smoke:
	$(GO) -C benchmark test ./...

bench:
	$(GO) test ./internal/bench -run '^$$' -bench QueryCache -benchtime 2s
