# Developer entry points. `make check` is the gate every change should
# pass before review: build, full test suite (including the randomized
# planner/scan equivalence properties and a fixed-seed smoke soak), the
# unused-exports check, and formatting when the formatter is available.

.PHONY: check build test fmt soak soak-ci soak-net bench bench-query \
	bench-text bench-version bench-txn bench-commit bench-mvcc bench-chaos \
	bench-recovery bench-spades perfbench perfbench-run loc unused

check: build test unused fmt

build:
	dune build

test:
	dune runtest

# the lib/ .ml+.mli line count (tracked files), as the ROADMAP reports it
loc:
	@cat $$(git ls-files 'lib/*.ml' 'lib/*.mli') | wc -l

# exports of lib/**/*.mli with no caller outside their own module
# ("(test only)" when only test/ calls them), except the deliberate ones
# test/unused_exports.allow lists with their reasons: exits 1 on any
# other. Callers are matched by the uid the compiler resolved, read from
# the .cmti and .cmt files `dune build @check` writes; the checker's own
# fixture (test/unused/fixture) runs first.
unused:
	@dune build @check ./test/unused_exports.allow \
	  ./test/unused/unused_exports.exe @test/unused/runtest
	@./_build/default/test/unused/unused_exports.exe _build/default \
	  bin bench perfbench examples

fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  dune build @fmt; \
	else \
	  echo "ocamlformat not installed; skipping @fmt"; \
	fi

# chaos soak: randomized op batches under crash-injected I/O, recover,
# verify. A fixed-seed 25-iteration smoke run is part of `make test`;
# this target is the larger configurable sweep. The MVCC stress run
# (reader domains against a committing writer, snapshots checked for
# internal consistency and replay equivalence) rides along at the same
# scale.
SOAK_ITERS ?= 200
SOAK_SEED ?= 42
soak:
	dune exec test/soak.exe -- --iters $(SOAK_ITERS) --seed $(SOAK_SEED)
	dune exec test/mvcc_stress.exe -- --iters $(SOAK_ITERS) --seed $(SOAK_SEED)

# the CI soak gate: fixed seed, 100 iterations — crash injection plus
# the read-fault (EINTR/bit-flip/short-read) pass on every iteration,
# and the multi-domain MVCC equivalence sweep
soak-ci:
	dune exec test/soak.exe -- --iters 100 --seed 42
	dune exec test/mvcc_stress.exe -- --iters 100 --seed 42

# network chaos soak: simulated clients drive the server core through
# seeded frame-level fault injectors (drops, duplicates, bit flips,
# truncation, delays, disconnects, dead clients, clock jumps past the
# lease) over a durable store. Exactly-once check-in, lease reaping and
# store survival (fsck + fingerprint across reopen) are verified every
# iteration. A fixed-seed 8-iteration smoke run is part of `make test`;
# this is the long configurable sweep.
SOAK_NET_ITERS ?= 100
SOAK_NET_STEPS ?= 200
soak-net:
	dune exec test/chaos_net.exe -- --iters $(SOAK_NET_ITERS) \
	  --steps $(SOAK_NET_STEPS) --seed $(SOAK_SEED)
	dune exec test/chaos_net.exe -- --iters $(SOAK_NET_ITERS) \
	  --steps $(SOAK_NET_STEPS) --clients 8 --seed $(SOAK_SEED)

# Each bench-* target regenerates one committed BENCH_<suite>.json. Every
# timed value in it is the median of Report.rounds rounds, with its min
# and max beside it; where a row compares two arms they alternate round
# by round (bench/report.ml, EXPERIMENTS.md).

# query planner: extent/index-backed select vs a naive table scan
bench-query:
	dune exec bench/main.exe -- query

# content search: trigram index vs full scan, plus index build and
# set_value with the index on vs off
bench-text:
	dune exec bench/main.exe -- text

# version reads: current view vs cold and warm version views
bench-version:
	dune exec bench/main.exe -- version

# transactions: one-frame commit, root-swap rollback, torn-txn recovery
bench-txn:
	dune exec bench/main.exe -- txn

# group commit: txns/s and fsyncs/txn vs writer count over one journal
bench-commit:
	dune exec bench/main.exe -- commit

# MVCC: snapshot-grab latency, reader domains vs a committing writer,
# single-threaded write-path cost
bench-mvcc:
	dune exec bench/main.exe -- mvcc

# chaos: recovery time and data survival under injected corruption and
# read faults
bench-chaos:
	dune exec bench/main.exe -- chaos

# recovery: Persist.Session.open_ of 10^4- and 10^5-document SPADES
# stores, verify on, each open in a fresh process (wall time, allocation,
# top heap), and the verify sweep alone
bench-recovery:
	dune exec bench/main.exe -- recovery

# S1, the paper's claim: a SPADES session on raw structures vs on SEED,
# and the slowdown factor
bench-spades:
	dune exec bench/main.exe -- spades

# regenerate every committed benchmark baseline
bench: bench-query bench-text bench-version bench-txn bench-commit \
	bench-mvcc bench-chaos bench-recovery bench-spades

# the served-path benchmark (perfbench/README.md, BENCHMARK.json):
# `perfbench` smoke-runs every workload on small stores, untraced and
# traced, and checks that its oracle rejects planted wrong answers;
# `perfbench-run` is one measured run, e.g.
# `make perfbench-run W=edit PB_TRACE=1` for the per-layer breakdown
W ?= edit
PB_SEED ?= 1
PB_TRACE ?= 0
perfbench:
	bash perfbench/run.sh self-test

perfbench-run:
	bash perfbench/run.sh --workload $(W) --seed $(PB_SEED) \
	  --seconds 15 --trace $(PB_TRACE)
