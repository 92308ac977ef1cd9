# Developer entry points.  CI (.github/workflows/ci.yml) runs `make lint`,
# `make check` and the benchmark self-test, and in separate jobs `make
# soak` and `make soak-failover`.  The paper's claims are checked by the
# agreement tests inside `make test`; timings come only from the
# benchmark (`python3 perfbench/run.py`, see perfbench/README.md).  The
# naive reference matcher is compared with the planned one by the
# differential tests inside `make test`, not by a rerun of the suite.

.PHONY: all build test test-list loc smoke obs-smoke soak soak-failover lint fmt \
  fmt-ml check clean bench-compare

all: build

build:
	dune build

# full suite: unit + property tests and the cram CLI suite
test:
	dune runtest

# every Alcotest case as "suite  case name", sorted, without the case
# indexes and the qcheck seed line: diff two revisions' lists to show
# that no test case disappeared
test-list:
	@dune exec test/test_main.exe -- list --color=never \
	  | sed -n -E 's/^([^ ]+) +[0-9]+ +(.*)\.$$/\1  \2/p' | LC_ALL=C sort

# line counts of the *.ml, *.mli and *.t files git lists: the program
# (lib/ and bin/), then its tests (test/ and cram/)
LOC_FILES = '$(1)/*.ml' '$(1)/*.mli' '$(1)/*.t' '$(2)/*.ml' '$(2)/*.mli' '$(2)/*.t'
loc:
	@echo "lib/ + bin/:   $$(git ls-files -z $(call LOC_FILES,lib,bin) | xargs -0 cat | wc -l)"
	@echo "test/ + cram/: $$(git ls-files -z $(call LOC_FILES,test,cram) | xargs -0 cat | wc -l)"

# quick confidence: the CLI cram suite only (builds both binaries,
# exercises parsing, the chase, limits/timeout degradation and reports)
smoke:
	dune runtest cram

# trace-enabled smoke chase: one observed run over the shipped corpus,
# then validate the emitted files with the obs-check tool: the trace as
# a tree of span records (one root, every parent resolvable), the
# metrics file by its schema header.  Every trace this Makefile checks
# goes through the same `obs_check --trace`.
obs-smoke: build
	dune exec bin/chase_cli.exe -- data/company_mapping.chase -q --profile \
	  --trace _build/obs_smoke.trace.json \
	  --metrics _build/obs_smoke.metrics.jsonl
	dune exec bin/obs_check.exe -- --trace _build/obs_smoke.trace.json \
	  --metrics _build/obs_smoke.metrics.jsonl

# process-level chaos soak: SIGKILL loops against a real chased with
# concurrent durable traffic, then boot recovery, byte-parity replay and
# a graceful life whose metrics file must validate.  Wall-clock bounded;
# CI runs SOAK_SECONDS=60.  The soak's traced replays leave per-process
# trace shards; merge them and validate the trace tree with the same
# `obs_check --trace` as obs-smoke.
SOAK_SECONDS ?= 20
soak: build
	dune exec test/soak/soak.exe -- \
	  --daemon _build/default/bin/chased.exe \
	  --seconds $(SOAK_SECONDS) --dir _build/soak
	dune exec bin/obs_check.exe -- --metrics _build/soak/metrics.jsonl
	dune exec bin/chasec.exe -- trace-merge \
	  _build/soak/client.trace _build/soak/chased.trace \
	  > _build/soak/trace-merged.json
	dune exec bin/obs_check.exe -- --trace _build/soak/trace-merged.json

# replicated failover soak: a real primary/standby chased pair, SIGKILL
# loops against the primary with durable traffic in flight, a wire-level
# promotion by the failover client, zero-lost-acks + byte-parity audit,
# and the standby receiver's metrics file (replication lag histograms
# included) validated by obs_check, and the merged audit trace by the
# same `obs_check --trace`.  CI runs SOAK_SECONDS=60.
soak-failover: build
	dune exec test/soak/soak_failover.exe -- \
	  --daemon _build/default/bin/chased.exe \
	  --seconds $(SOAK_SECONDS) --dir _build/soak-failover
	dune exec bin/obs_check.exe -- --metrics _build/soak-failover/metrics.jsonl
	dune exec bin/chasec.exe -- trace-merge \
	  _build/soak-failover/client.trace _build/soak-failover/standby.trace \
	  > _build/soak-failover/trace-merged.json
	dune exec bin/obs_check.exe -- --trace _build/soak-failover/trace-merged.json

# static diagnostics over the shipped corpus: errors or warnings fail
lint: build
	dune exec bin/lint_cli.exe -- data/*.chase examples/*.chase

# formatting gate: dune files are always checked; .ml formatting only
# when ocamlformat is available (it is not baked into every image)
fmt:
	dune build @fmt
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  $(MAKE) fmt-ml; \
	else \
	  echo "ocamlformat not installed: skipping .ml formatting check"; \
	fi

fmt-ml:
	ocamlformat --check $$(git ls-files '*.ml' '*.mli')

# benchmark compare of a revision against the working tree: BASE is
# checked out into a git worktree under _build/bench-compare/ and built
# there; one traced run per side must show the same work counts, then
# ten alternating untraced pairs at BENCHMARK.json's run length give each
# side's median and quartiles per end-to-end metric, judged against the
# metric's bound (see tools/bench_compare.py).  WORKLOAD=all compares
# every workload of BENCHMARK.json in turn over the one BASE build.
BASE ?= HEAD
WORKLOAD ?= chase-closure
bench-compare:
	python3 tools/bench_compare.py --base $(BASE) --workload $(WORKLOAD)

check: build fmt lint test obs-smoke

clean:
	dune clean
