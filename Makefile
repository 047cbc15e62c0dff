GO ?= go

.PHONY: build test race lint lint-fixtures fmt vet fuzz-smoke list examples-smoke trace-golden alloc-guard bench-smoke dynamic-smoke shard-smoke perf-ledger perf-gate perf-baseline all

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# mis and matching ride along: their stages reuse per-node broadcast masks,
# outboxes and neighbour tables, which the Parallel worker pool must not
# share. ecolor and decomp ride along too: their collect stage and cluster
# solve run on core's per-node row slices (core.Collect, core.Component).
# The template golden traces run every registered template on the pool and
# on two shards, so the staged broadcast path is race-checked end to end;
# FuzzShardParity's seeds run the registry on several shard counts, so the
# chunked placement of sharded runs is too.
race:
	$(GO) test -race ./internal/runtime/ ./internal/core/ ./internal/shard/ ./internal/mis/ ./internal/matching/ ./internal/ecolor/ ./internal/decomp/
	$(GO) test -race -run 'TestTemplateGoldenTraces|FuzzShardParity' .

# The problem/algorithm registry (also the README's algorithm table).
list:
	$(GO) run ./cmd/dgp-run -list

# The library surface end to end: run the fast example programs, each of
# which exits non-zero on any run or verification error. quickstart and
# grid-bw take tens of seconds, so they stay build-only (`make build`).
examples-smoke:
	$(GO) run ./examples/all-problems
	$(GO) run ./examples/network-update
	$(GO) run ./examples/rooted-tree
	$(GO) run ./examples/tradeoff

# Domain analyzers (internal/analysis, driven by cmd/dgp-lint): map-order
# determinism, seeded randomness, machine purity, CONGEST payload sizing,
# sentinel error wrapping, plus the dataflow checks — inbox slab aliasing,
# the //dgp:hotpath allocation gate, obs emission ordering, and the dynamic
# session Seq-ledger discipline. Exits non-zero on any finding.
lint:
	$(GO) run ./cmd/dgp-lint ./...

# The analyzers' own golden fixtures (internal/analysis/testdata), run
# through the stdlib analysistest clone: every diagnostic must match a
# `// want` comment and vice versa.
lint-fixtures:
	$(GO) test -count=1 ./internal/analysis/...

fmt:
	gofmt -l -w .

vet:
	$(GO) vet ./...

# The trace determinism contract, checked through the CLIs: a fixed-seed
# chaotic self-healing run, the multi-lane template stages and the damaging
# session stream each record the same event stream on both engines
# (durations excepted — `dgp-trace diff` canonicalizes them away), and the
# session stream must actually heal.
trace-golden:
	$(GO) build -o /tmp/dgp-run ./cmd/dgp-run
	$(GO) build -o /tmp/dgp-trace ./cmd/dgp-trace
	/tmp/dgp-run -problem mis -graph gnp -n 120 -seed 9 -flips 12 -chaos 0.3 -heal -trace /tmp/seq.jsonl
	/tmp/dgp-run -problem mis -graph gnp -n 120 -seed 9 -flips 12 -chaos 0.3 -heal -parallel -trace /tmp/pool.jsonl
	/tmp/dgp-trace diff /tmp/seq.jsonl /tmp/pool.jsonl
	/tmp/dgp-trace summarize /tmp/seq.jsonl
	for pa in "mis parallel" "vcolor interleaved"; do \
		set -- $$pa; \
		/tmp/dgp-run -problem $$1 -alg $$2 $(TMPL_RUN) -trace /tmp/tmpl-seq.jsonl > /dev/null && \
		/tmp/dgp-run -problem $$1 -alg $$2 $(TMPL_RUN) -parallel -trace /tmp/tmpl-pool.jsonl > /dev/null && \
		/tmp/dgp-trace diff /tmp/tmpl-seq.jsonl /tmp/tmpl-pool.jsonl || exit 1; \
	done
	/tmp/dgp-run $(HEAL_SESSION) -trace /tmp/session-seq.jsonl > /tmp/session-seq.txt
	cat /tmp/session-seq.txt
	/tmp/dgp-run $(HEAL_SESSION) -parallel -trace /tmp/session-pool.jsonl > /dev/null
	grep -q 'recoveryRounds=[1-9]' /tmp/session-seq.txt || { echo 'trace-golden: the update stream never healed'; exit 1; }
	/tmp/dgp-trace diff /tmp/session-seq.jsonl /tmp/session-pool.jsonl

# Disabled tracing must stay near-zero-cost: the steady-state allocation
# budget test fails if the per-round allocation count regresses (0
# allocs/round on every engine mode since the columnar rewrite), and the
# whole-run template budget fails if a Simple Template solve starts to
# allocate per node again.
alloc-guard:
	$(GO) test -run 'TestSteadyStateAllocBudget' -count=1 -v ./internal/runtime/
	$(GO) test -run 'TestTemplateAllocBudget' -count=1 -v .

# The 100k-node scale sweep on both engines — a fast end-to-end smoke of
# the columnar hot path (CSR build, arena inboxes, frontier compaction).
# EXPERIMENTS.md's scale table holds the full 1M/10M numbers.
bench-smoke:
	$(GO) run ./cmd/dgp-bench -exp scale -nodes 100000
	$(GO) run ./cmd/dgp-bench -exp scale -nodes 100000 -par

# Brief coverage-guided runs of the committed fuzz targets; the seed corpora
# under testdata/fuzz always run as part of `make test`.
fuzz-smoke:
	$(GO) test ./internal/runtime -run '^$$' -fuzz FuzzAdversaryParity -fuzztime 30s
	$(GO) test ./internal/heal -run '^$$' -fuzz FuzzCarve -fuzztime 30s
	$(GO) test . -run '^$$' -fuzz FuzzSessionConvergence -fuzztime 30s
	$(GO) test . -run '^$$' -fuzz FuzzShardParity -fuzztime 30s

# The sharded engine end to end: a 1-shard CLI run whose trace must match
# the unsharded engine's exactly (no events dropped), a 4-shard run and a
# 2-shard Parallel run whose traces must match it with the shard ledger
# events dropped (the determinism contract), then the CH8 boundary-traffic
# sweep at 100k nodes on both engine modes.
shard-smoke:
	$(GO) build -o /tmp/dgp-run ./cmd/dgp-run
	$(GO) build -o /tmp/dgp-trace ./cmd/dgp-trace
	/tmp/dgp-run -problem mis -graph gnp -n 120 -seed 9 -flips 12 -chaos 0.3 -heal -trace /tmp/unsharded.jsonl
	/tmp/dgp-run -problem mis -graph gnp -n 120 -seed 9 -flips 12 -chaos 0.3 -heal -shards 1 -trace /tmp/shard1.jsonl
	/tmp/dgp-trace diff /tmp/unsharded.jsonl /tmp/shard1.jsonl
	/tmp/dgp-run -problem mis -graph gnp -n 120 -seed 9 -flips 12 -chaos 0.3 -heal -shards 4 -trace /tmp/sharded.jsonl
	/tmp/dgp-trace diff -drop shard-exchange /tmp/unsharded.jsonl /tmp/sharded.jsonl
	/tmp/dgp-run -problem mis -graph gnp -n 120 -seed 9 -flips 12 -chaos 0.3 -heal -shards 2 -parallel -trace /tmp/sharded-par.jsonl
	/tmp/dgp-trace diff -drop shard-exchange /tmp/unsharded.jsonl /tmp/sharded-par.jsonl
	$(GO) run ./cmd/dgp-bench -exp shards -shards 1,2,4,8
	$(GO) run ./cmd/dgp-bench -exp shards -shards 1,2,4,8 -par

# The performance ledger (DESIGN.md §13): every sweep also emits a
# machine-readable BENCH_<experiment>.json, and dgp-perf gates head ledgers
# against the committed baseline. Deterministic counters (rounds, messages,
# residuals, boundary traffic) must reproduce exactly; allocs/round has a
# small noise band; wall-clock metrics are informational only, so the
# committed baseline is portable across machines.
PERF_LEDGER_DIR ?= /tmp/perf-ledger
perf-ledger:
	$(GO) run ./cmd/dgp-bench -exp chaos -bench-out $(PERF_LEDGER_DIR) > /dev/null
	$(GO) run ./cmd/dgp-bench -exp dynamic -bench-out $(PERF_LEDGER_DIR) > /dev/null
	$(GO) run ./cmd/dgp-bench -exp scale -nodes 100000 -bench-out $(PERF_LEDGER_DIR) > /dev/null
	$(GO) run ./cmd/dgp-bench -exp shards -shards 1,2,4 -bench-out $(PERF_LEDGER_DIR) > /dev/null

# The CI regression gate: regenerate head ledgers and compare against
# testdata/perf/baseline; exits non-zero on any regression or coverage loss.
perf-gate: perf-ledger
	$(GO) run ./cmd/dgp-perf gate -baseline testdata/perf/baseline $(PERF_LEDGER_DIR)

# Baseline refresh: rerun the sweeps into testdata/perf/baseline and commit
# the result. Do this when a PR intentionally moves a gated metric (fewer
# rounds, lower boundary traffic, changed sweep shape) — the dgp-perf compare
# output belongs in that PR's description.
perf-baseline:
	$(GO) run ./cmd/dgp-bench -exp chaos -bench-out testdata/perf/baseline > /dev/null
	$(GO) run ./cmd/dgp-bench -exp dynamic -bench-out testdata/perf/baseline > /dev/null
	$(GO) run ./cmd/dgp-bench -exp scale -nodes 100000 -bench-out testdata/perf/baseline > /dev/null
	$(GO) run ./cmd/dgp-bench -exp shards -shards 1,2,4 -bench-out testdata/perf/baseline > /dev/null
	$(GO) run ./cmd/dgp-perf validate testdata/perf/baseline

# The multi-lane template stages' trace parity runs: mis/parallel (the
# Parallel section) and vcolor/interleaved (the Interleaved alternation).
TMPL_RUN = -graph gnp -n 120 -seed 9 -flips 12

# A damaging update stream: each batch inserts a clique among eight nodes,
# so the stale MIS gains in-set conflicts that the session must heal.
HEAL_SESSION = -problem mis -graph gnp -n 200 -seed 7 -updates testdata/heal_updates.jsonl -streamchaos 0.3

# The dynamic-session path end to end: the damaging update stream under
# stream chaos on both engines (identical reports, non-zero recovery
# rounds), then the CH5/CH6 recovery tables (batch-size sweep and the
# 250k-node scale run demonstrating rounds ∝ η, not n).
dynamic-smoke:
	$(GO) build -o /tmp/dgp-run ./cmd/dgp-run
	/tmp/dgp-run $(HEAL_SESSION) > /tmp/session-seq.txt
	/tmp/dgp-run $(HEAL_SESSION) -parallel > /tmp/session-pool.txt
	cat /tmp/session-seq.txt
	diff /tmp/session-seq.txt /tmp/session-pool.txt
	grep -q 'recoveryRounds=[1-9]' /tmp/session-seq.txt || { echo 'dynamic-smoke: the update stream never healed'; exit 1; }
	$(GO) run ./cmd/dgp-bench -exp dynamic
