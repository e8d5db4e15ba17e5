# Developer entry points for the GADT reproduction.
#
#   make check      - formatting, vet, build, tests, fuzz + journal smokes
#   make build      - compile every package and command
#   make test       - run the test suite
#   make bench      - run the benchmark suite once
#   make bench-save    - record interpreter benchmarks to bench.old.txt
#   make bench-compare - re-run them and diff against bench.old.txt
#   make bench-interp  - write BENCH_interp.json (hot path vs recorded baseline)
#   make bench-vm      - write BENCH_vm.json (VM vs interpreter, 3x geomean gate)
#   make mutate     - run the full mutation campaign, write BENCH_mutation.json
#   make diff       - run the differential equivalence campaign, write BENCH_diff.json
#   make trace-smoke - record Chrome traces (gadt + pmut) and validate them
#   make serve-smoke - boot gadt-serve, drive a curl session, scrape /metrics
#   make lint       - run plint over the fixture and example programs
#   make staticcheck - run staticcheck when installed (CI pins its version)
#   make fmt        - rewrite sources with gofmt

GO ?= go
FUZZTIME ?= 5s
# Benchmarks tracked by bench-save / bench-compare; -count 3 gives the
# comparator (benchstat, or cmd/benchcmp as fallback) repeats to average.
BENCH_PATTERN ?= BenchmarkInterp|BenchmarkVM
BENCH_COUNT ?= 3

.PHONY: check build test bench bench-save bench-compare bench-interp bench-vm \
	mutate diff trace-smoke serve-smoke lint staticcheck fmt smoke-journal smoke-fuzz

# Where trace-smoke leaves its artifacts (CI uploads this directory).
TRACE_DIR ?= trace-out

check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test ./...
	$(MAKE) smoke-fuzz
	$(MAKE) smoke-journal

# Short coverage-guided fuzz runs: the lexer, the parser and the HTTP
# session API must survive arbitrary inputs without panicking, and the
# bytecode VM must agree with the interpreter on every generated
# program (one -fuzz pattern per package).
smoke-fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzLexer -fuzztime=$(FUZZTIME) ./internal/pascal/lexer
	$(GO) test -run='^$$' -fuzz=FuzzParser -fuzztime=$(FUZZTIME) ./internal/pascal/parser
	$(GO) test -run='^$$' -fuzz=FuzzSessionAPI -fuzztime=$(FUZZTIME) ./internal/serve
	$(GO) test -run='^$$' -fuzz=FuzzVMvsInterp -fuzztime=$(FUZZTIME) ./internal/pascal/vm

# Record a debugging session against the known-good reference, then
# replay it with stdin closed: both runs must localize the same unit and
# the replay must not need any interactive answer.
smoke-journal:
	@tmp=$$(mktemp -d); \
	$(GO) run ./cmd/gadt -reference testdata/sqrtest_fixed.pas -stats \
		-journal $$tmp/session.jsonl testdata/sqrtest.pas > $$tmp/record.out || exit 1; \
	$(GO) run ./cmd/gadt -replay $$tmp/session.jsonl testdata/sqrtest.pas \
		< /dev/null > $$tmp/replay.out || exit 1; \
	rec=$$(grep 'localized inside the body of' $$tmp/record.out); \
	rep=$$(grep 'localized inside the body of' $$tmp/replay.out); \
	if [ -z "$$rec" ] || [ "$$rec" != "$$rep" ]; then \
		echo "journal round-trip mismatch:"; \
		echo "  record: $$rec"; echo "  replay: $$rep"; exit 1; \
	fi; \
	queries=$$(grep -c '"kind":"query"' $$tmp/session.jsonl); \
	stats=$$(awk '$$1 == "debugger.oracle.queries" {print $$2}' $$tmp/record.out); \
	if [ "$$queries" != "$$stats" ]; then \
		echo "journal has $$queries queries but -stats counted $$stats"; exit 1; \
	fi; \
	rm -rf $$tmp; \
	echo "journal round-trip ok: $$rec ($$queries queries)"

build:
	$(GO) build ./...

test:
	$(GO) test ./...

bench:
	$(GO) test -bench=. -benchmem -benchtime=1x ./...

# Perf workflow (see README "Performance"): record the current numbers
# before a change, then compare after it. Uses benchstat when installed,
# otherwise the in-repo comparator.
bench-save:
	$(GO) test -run='^$$' -bench '$(BENCH_PATTERN)' -benchmem -count $(BENCH_COUNT) . | tee bench.old.txt

bench-compare:
	$(GO) test -run='^$$' -bench '$(BENCH_PATTERN)' -benchmem -count $(BENCH_COUNT) . | tee bench.new.txt
	@if command -v benchstat >/dev/null 2>&1; then \
		benchstat bench.old.txt bench.new.txt; \
	else \
		$(GO) run ./cmd/benchcmp bench.old.txt bench.new.txt; \
	fi

# Hot-path report: current interpreter numbers against the committed
# pre-overhaul baseline (testdata/bench/baseline_interp.txt).
bench-interp:
	$(GO) run ./cmd/interp-bench -o BENCH_interp.json

# Backend report: bytecode VM vs the current interpreter on the gate
# workloads, timed in interleaved rounds (min-of-rounds per side, so a
# noisy host degrades both numbers instead of skewing the ratio). Fails
# below a 3x geometric-mean speedup — the VM's reason to exist.
bench-vm:
	$(GO) run ./cmd/interp-bench -vm -o BENCH_vm.json -gate 3.0

# Fault-injection evaluation: mutate every subject program, run each
# mutant through the debugger with the unmutated original as oracle.
# -gate fails the run if weighted divide-and-query's median question
# count regresses above plain divide-and-query's.
mutate:
	$(GO) run ./cmd/pmut -budget 240 -seed 1 -gate -json BENCH_mutation.json

# Differential equivalence campaign: every generated/corpus program is
# run untransformed and through every transformation stage combination;
# stdout and final global state must agree. Exit 1 on any divergence;
# minimized counterexamples land in testdata/diff/.
diff:
	$(GO) run ./cmd/pdiff -n 250 -seed 1 -dir testdata/diff -json BENCH_diff.json

# Record two Perfetto-loadable traces — a single-lane debugging session
# and a multi-lane mutation campaign — then validate both with
# cmd/tracecheck: well-formed JSON, balanced B/E per lane, nested spans,
# labeled thread_name lanes.
trace-smoke:
	mkdir -p $(TRACE_DIR)
	$(GO) run ./cmd/gadt -reference testdata/sqrtest_fixed.pas \
		-trace-out $(TRACE_DIR)/gadt.trace.json testdata/sqrtest.pas > /dev/null
	$(GO) run ./cmd/pmut -budget 12 -seed 1 -workers 2 -json "" \
		-trace-out $(TRACE_DIR)/pmut.trace.json > /dev/null
	$(GO) run ./cmd/tracecheck $(TRACE_DIR)/gadt.trace.json $(TRACE_DIR)/pmut.trace.json

# Where serve-smoke leaves its transcript (CI uploads this directory).
SERVE_SMOKE_DIR ?= serve-smoke-out

# End-to-end binary smoke: build and boot gadt-serve on an ephemeral
# port, replay the checked-in CLI journal over curl, require the
# decrement diagnosis and nonzero serve_* counters on /metrics.
serve-smoke:
	sh scripts/serve-smoke.sh $(SERVE_SMOKE_DIR)

lint:
	$(GO) run ./cmd/plint testdata/*.pas || true

# Static analysis beyond go vet. The tool is not vendored; install it
# with `go install honnef.co/go/tools/cmd/staticcheck@2023.1.7` (the
# version CI pins). Skips with a notice when the binary is absent so
# `make check` stays runnable offline.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it pinned)"; \
	fi

fmt:
	gofmt -w .
