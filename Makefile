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

.PHONY: check vet build test race cover bench-smoke benchmark-smoke bench fuzz

## check: the full CI gate — vet, build, the whole suite, the engine
## packages under the race detector at three GOMAXPROCS values,
## per-package coverage floors, short fuzz sessions for every fuzz
## target, one iteration of every benchmark, and the repository
## benchmark's smoke test. No gate names a test: each selects by
## package, so a renamed or added test is run without a Makefile edit.
## Every store runs the pooled heap, and the differential and crash
## batteries take the pool cap as a table input (unbounded and a two-
## or three-page pool), so the plain suite covers bounded memory too.
check: vet build test race cover fuzz bench-smoke benchmark-smoke

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## race: every test of the packages that hold shared mutable state —
## the engine (sqldb: readers, writers, group commit, checkpoints,
## crash-at-every-offset sweeps, the resource governor and its chaos
## battery, buffer-pool pins), the façade (core: snapshot
## reconstruction during updates, cancellation, durable stores), the
## network front door (server: pinned sessions, overload, shutdown
## drain) and the LRU — under the race detector at GOMAXPROCS 1, 2 and
## 4 (go test's own -cpu list). -count=1 keeps a second run from being
## served from the test cache.
race:
	$(GO) test -race -count=1 -cpu 1,2,4 ./internal/sqldb ./internal/core ./internal/server ./internal/lru

## cover: per-package statement-coverage floors for the packages that
## hold the engine (sqldb), the mappings (shred), the façade (core) and
## the XML data model with its streaming tokenizer (xmldom). The
## mappings sit a few points under their suite's measure (about 75%),
## so losing the tests of the shared shredding walk or tree assembler
## fails the gate.
cover:
	@for entry in "./internal/sqldb $(COVER_FLOOR_SQLDB)" "./internal/shred 72" "./internal/core $(COVER_FLOOR)" "./internal/xmldom $(COVER_FLOOR_XMLDOM)"; do \
		pkg=$${entry% *}; floor=$${entry#* }; \
		pct=$$($(GO) test -cover $$pkg | awk '{for (i=1;i<=NF;i++) if ($$i == "coverage:") {sub(/%/,"",$$(i+1)); print $$(i+1)}}'); \
		if [ -z "$$pct" ]; then echo "cover: no coverage reported for $$pkg" >&2; exit 1; fi; \
		echo "cover: $$pkg $$pct% (floor $$floor%)"; \
		if awk "BEGIN{exit !($$pct < $$floor)}"; then \
			echo "cover: $$pkg coverage $$pct% is below the $$floor% floor" >&2; exit 1; \
		fi; \
	done

## fuzz: a short fuzzing session for every fuzz target in the module,
## found with `go test -list`, so a new, renamed or deleted target needs
## no Makefile edit. Each -fuzz invocation accepts one target, so they
## run one after another; raise FUZZ_TIME for a real session.
fuzz:
	@list=$$($(GO) test -list '^Fuzz' ./...) || { echo "$$list" >&2; exit 1; }; \
	targets=$$(echo "$$list" | awk '/^Fuzz/ {t[n++] = $$1} /^ok/ {for (i = 0; i < n; i++) print $$2, t[i]; n = 0}'); \
	[ -n "$$targets" ] || { echo "fuzz: no fuzz targets found" >&2; exit 1; }; \
	echo "$$targets" | while read pkg target; do \
		echo "fuzz: $$pkg $$target"; \
		$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime $(FUZZ_TIME) $$pkg || exit 1; \
	done

## bench-smoke: one iteration of every benchmark, to keep them compiling
## and running (the page-decode benchmark also fails above four
## allocations per page); use `make bench` for real numbers. The
## per-scheme ordered inserts (edge, binary, interval, dewey, inline)
## run in `make test`: internal/bench drives every xbench experiment at
## smoke scale, and F3 fails on any insert error.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/...

## benchmark-smoke: the repository benchmark's smoke test (benchmark/,
## its own module) — all four workloads at factor 0.02 in sub-second
## windows, about 8 s, offline. Drift in the engine API benchmark/sut.go
## uses fails here instead of only in the benchmark driver.
benchmark-smoke:
	$(GO) -C benchmark test ./...

bench:
	$(GO) test ./internal/bench -run '^$$' -bench . -benchtime 2s
