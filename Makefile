# Tier-1 verification and day-to-day targets.
#
#   make build       compile every package
#   make test        run the full test suite
#   make race        run the concurrency-sensitive suites under -race
#                    (admission vetting + quarantine, engine snapshot
#                    swap + sharded fan-out + guarded training, eval
#                    parallelism, the experiment drivers' parallel
#                    exhibits, scenario online serving, the HTTP
#                    front-end's shed/wedge tests, and the root
#                    facade's end-to-end serving tests)
#   make vet         static checks
#   make gofmt       fail, listing them, if any tracked .go file is not
#                    gofmt-clean (testdata fixtures included)
#   make lint        run the repo's own analyzer suite (cmd/sbvet:
#                    snapshotonce, statscomplete, ctxdrain,
#                    tokenizeonce, plus the interprocedural admitflow,
#                    hookorder, facadeexport, atomicfield — see
#                    internal/analysis) over every package and its
#                    _test.go files; any finding fails the build
#   make fuzz        short fuzz smoke over the persistence decoders
#                    (the one binary codec they all share, internal/
#                    binfmt, with its writer's round trip; both token
#                    databases; the one-record snapshot envelope,
#                    seeded with real guarded saves; the version-1
#                    admission sidecar resume still reads; and the
#                    admission state payloads), the tokenizer, the
#                    HTTP request decoder, the mail parser and mbox
#                    reader (each with its writer's round trip) and the
#                    metrics text parser (with WriteText's round trip)
#                    ($(FUZZTIME) per target; CI runs it, so a format
#                    regression that panics on garbage, a request
#                    decoder that stops agreeing with encoding/json, or
#                    a writer whose output stops reading back, cannot
#                    land)
#   make cover       run the test suite with coverage and write
#                    cover.out + the per-function summary cover.txt
#                    (CI uploads both)
#   make bench       run all benchmarks (one per exhibit + micro-benchmarks)
#   make bench-tokenize  just the two per-message layer microbenches:
#                    the pooled Stream walk (MB/s and allocs/op) and
#                    sbayes scoring of a tokenized message (ns/op, 0
#                    allocs/op) — the fast loop for tokenize and score
#                    work
#   make bench-json  run the benchmarks (the root package's plus the
#                    request decoder's BenchmarkWireDecode) and write
#                    $(BENCH_JSON) as a machine-readable artifact (CI
#                    uploads it, so the perf trajectory accumulates
#                    across PRs)
#   make ab PARENT=<rev> [SEED=1] [WORKLOAD=<name>]
#                    the repo benchmark's before/after (cmd/benchab):
#                    checks PARENT out with git worktree under
#                    .bench_build/, runs every BENCHMARK.json workload
#                    (or WORKLOAD) 10 times on each side, alternating,
#                    and prints each end-to-end metric's medians and
#                    quartiles, wins out of pairs and verdict (gain,
#                    within bound, worse, unresolved) against its bound
#   make loc         print the non-test Go line count of the tracked
#                    files outside benchmark/ and testdata fixtures —
#                    the size figure simplicity changes report
#   make check       build + vet + gofmt + lint + test + race (CI runs
#                    the same pieces, but folds the plain test pass
#                    into `make cover` and adds `make fuzz`)

GO ?= go
BENCH_JSON ?= BENCH_PR8.json
BENCHTIME  ?= 1s
FUZZTIME   ?= 10s
SEED       ?= 1

.PHONY: build test race vet gofmt lint fuzz cover bench bench-tokenize bench-json ab loc check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race . ./internal/admission/ ./internal/engine/ ./internal/eval/ ./internal/experiments/ ./internal/scenario/ ./internal/serve/

vet:
	$(GO) vet ./...

# gofmt -l prints the files whose formatting differs; any output fails
# the target, and so does a file gofmt cannot parse.
gofmt:
	@files=$$(gofmt -l $$(git ls-files '*.go')) || exit 1; \
	if [ -n "$$files" ]; then echo "gofmt -l: not formatted:"; echo "$$files"; exit 1; fi

# The project-specific invariants (snapshot-once serving, complete
# Stats accounting, ctx-aware channel drains, fenced tokenization,
# guarded training paths, hook ordering, facade completeness, atomic
# field discipline), checked over test files too.
lint:
	$(GO) run ./cmd/sbvet ./...

# `go test -fuzz` takes one target per invocation, so one line per
# fuzz target. Each also replays its committed seed corpus first.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzCodec -fuzztime=$(FUZZTIME) ./internal/binfmt/
	$(GO) test -run='^$$' -fuzz=FuzzSBayesSaveLoad -fuzztime=$(FUZZTIME) ./internal/sbayes/
	$(GO) test -run='^$$' -fuzz=FuzzGrahamSaveLoad -fuzztime=$(FUZZTIME) ./internal/graham/
	$(GO) test -run='^$$' -fuzz=FuzzTokenStream -fuzztime=$(FUZZTIME) ./internal/tokenize/
	$(GO) test -run='^$$' -fuzz=FuzzWireDecode -fuzztime=$(FUZZTIME) ./internal/serve/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeEnvelope -fuzztime=$(FUZZTIME) ./internal/engine/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeAdmissionState -fuzztime=$(FUZZTIME) ./internal/engine/
	$(GO) test -run='^$$' -fuzz=FuzzAdmissionLoadState -fuzztime=$(FUZZTIME) ./internal/admission/
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/mail/
	$(GO) test -run='^$$' -fuzz=FuzzMboxReader -fuzztime=$(FUZZTIME) ./internal/mail/
	$(GO) test -run='^$$' -fuzz=FuzzParseText -fuzztime=$(FUZZTIME) ./internal/obs/

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out > cover.txt
	@tail -1 cover.txt

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

bench-tokenize:
	$(GO) test -bench='BenchmarkTokenizeMessage|BenchmarkClassifyMessage' -benchmem -run=^$$ .

# Two steps rather than a pipe: /bin/sh has no pipefail, and a piped
# `go test` failure would otherwise exit 0 and archive a truncated
# artifact as green.
bench-json:
	$(GO) test -bench=. -benchmem -benchtime=$(BENCHTIME) -timeout=30m -run=^$$ . ./internal/serve/ \
		> $(BENCH_JSON:.json=.txt)
	$(GO) run ./cmd/benchjson -out $(BENCH_JSON) < $(BENCH_JSON:.json=.txt)

# The change side is the working tree; the parent's worktree is
# removed when the pairs finish.
ab:
	$(GO) run ./cmd/benchab -parent '$(PARENT)' -seed '$(SEED)' -workload '$(WORKLOAD)'

# Counts lines of every tracked .go file that is not a _test.go file,
# not under benchmark/ and not a testdata fixture.
loc:
	@git ls-files '*.go' | grep -v -e '_test\.go$$' -e '^benchmark/' -e '/testdata/' | xargs cat | wc -l

check: build vet gofmt lint test race
