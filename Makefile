# Developer entry points. `make check` is the gate every change should
# pass before review: build, full test suite (including the randomized
# planner/scan equivalence properties and a fixed-seed smoke soak), and
# formatting when the formatter is available.

.PHONY: check build test fmt soak soak-ci soak-net bench bench-query \
	bench-text bench-version bench-txn bench-commit bench-mvcc bench-chaos \
	bench-recovery perfbench perfbench-run loc

check: build test fmt

build:
	dune build

test:
	dune runtest

# the lib/ .ml+.mli line count (tracked files), as the ROADMAP reports it
loc:
	@cat $$(git ls-files 'lib/*.ml' 'lib/*.mli') | wc -l

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

# regenerate the committed query-planner baseline
bench-query:
	dune exec bench/main.exe -- query

# regenerate the committed content-search baseline (trigram index vs
# full scan, plus index build and incremental-update cost)
bench-text:
	dune exec bench/main.exe -- text

# regenerate the committed version-read baseline
bench-version:
	dune exec bench/main.exe -- version

# regenerate the committed transaction/recovery baseline
bench-txn:
	dune exec bench/main.exe -- txn

# regenerate the committed group-commit baseline (txns/s and fsyncs/txn
# vs writer count over one journal)
bench-commit:
	dune exec bench/main.exe -- commit

# regenerate the committed MVCC baseline (snapshot-grab latency, reader
# domains vs a committing writer, single-threaded write-path cost)
bench-mvcc:
	dune exec bench/main.exe -- mvcc

# regenerate the committed chaos baseline (recovery time and data
# survival under injected corruption and read faults)
bench-chaos:
	dune exec bench/main.exe -- chaos

# regenerate the committed recovery baseline: Persist.Session.open_ of
# 10^4- and 10^5-document SPADES stores, verify on, each open in a fresh
# process (wall time, allocation, top heap)
bench-recovery:
	dune exec bench/main.exe -- recovery

# regenerate every committed benchmark baseline
bench: bench-query bench-text bench-version bench-txn bench-commit \
	bench-mvcc bench-chaos bench-recovery

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
