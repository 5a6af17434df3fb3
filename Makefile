GO ?= go

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

## vet: go vet, and gofmt over every Go source directory of the module
## (benchmark/ is its own module); any file gofmt would rewrite fails it.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l internal cmd examples); \
	if [ -n "$$unformatted" ]; then echo "vet: gofmt would rewrite:" >&2; echo "$$unformatted" >&2; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## race: every test of the packages that hold shared mutable state —
## the engine (sqldb: readers, writers and transactions, the WAL commit
## pipeline, checkpoints, crash-at-every-offset sweeps, the resource
## governor and its chaos battery, buffer-pool pins), the façade
## (core: snapshot reconstruction during updates, cancellation, durable
## stores), the network front door (server: pinned sessions, overload,
## shutdown drain) and the LRU — under the race detector at GOMAXPROCS
## 1, 2 and 4, one go test invocation per value, so each package's test
## binary runs one GOMAXPROCS pass inside go test's default timeout.
## -count=1 keeps a second run from being served from the test cache.
race:
	@for n in 1 2 4; do \
		echo "race: -cpu $$n"; \
		$(GO) test -race -count=1 -cpu $$n ./internal/sqldb ./internal/core ./internal/server ./internal/lru || exit 1; \
	done

## cover: per-package statement-coverage floors for the packages that
## hold the engine (sqldb), the mappings (shred), their XPath-to-SQL
## translations (translate), the façade (core) and the XML data model
## with its streaming tokenizer (xmldom). Each floor is written into its
## entry a few points under what the package's own suite measures
## (sqldb about 87%, shred 75%, translate 65%, core 86%, xmldom 91%), so
## deleting a test that held real coverage — of the shared shredding
## walk, the one step walker, the six-scheme durability sweeps, the one
## lexer — fails the gate.
cover:
	@for entry in "./internal/sqldb 80" "./internal/shred 72" "./internal/translate 62" "./internal/core 82" "./internal/xmldom 88"; do \
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
## run one after another; raise FUZZ_TIME for a real session. New
## interesting inputs are not minimized (-fuzzminimizetime 0): the
## budget goes to executions, not to shrinking large seeds.
fuzz:
	@list=$$($(GO) test -list '^Fuzz' ./...) || { echo "$$list" >&2; exit 1; }; \
	targets=$$(echo "$$list" | awk '/^Fuzz/ {t[n++] = $$1} /^ok/ {for (i = 0; i < n; i++) print $$2, t[i]; n = 0}'); \
	[ -n "$$targets" ] || { echo "fuzz: no fuzz targets found" >&2; exit 1; }; \
	echo "$$targets" | while read pkg target; do \
		echo "fuzz: $$pkg $$target"; \
		$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime $(FUZZ_TIME) -fuzzminimizetime 0 $$pkg || exit 1; \
	done

## bench-smoke: one iteration of every benchmark, to keep them compiling
## and running (the page-decode benchmark also fails when a page fault,
## image to sealed frame, makes more than four allocations, or when
## faulting a page and reading every row into one scratch row makes
## more than eight; the bulk-load benchmark when a 65,536-row load makes
## more than 25,000 allocations, as a per-row allocation would; the
## reopen benchmark when reopening a factor-0.1 Interval store makes
## more than 2,350, as decoding every row into a row of its own at the
## index rebuild, or a B-tree node in more than one array, would; the
## B-tree benchmark when a tree holds more than 12 bytes per entry, as
## offsets and rowids at full width would); use `make bench` for real
## numbers. The per-scheme ordered inserts (edge, binary, interval,
## dewey, inline) run in `make test`: internal/bench drives every xbench
## experiment at smoke scale, and F3 fails on any insert error.
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
