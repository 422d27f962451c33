DUNE ?= dune

.PHONY: all build test smoke lint exprtable plandiff constopt fleet fmt telemetry trace frontier profile loc clean

all: build

build:
	$(DUNE) build

test:
	$(DUNE) runtest

# Two-domain, small-budget campaign over the correct engine: exits non-zero
# if any oracle reports (i.e. on a false positive).  Finishes well under 30s.
smoke:
	$(DUNE) exec bin/sqlancer.exe -- campaign --databases 16 -j 2 --trace /tmp/pqs_smoke.jsonl

# Generated-SQL self-check: build the seed corpus (seeds 1-10,000) and
# run its containment queries (three per seed) on the bug-free engine in
# every dialect.  A query's Type_error, or a generated DDL/DML statement
# or query that printer->parser->printer changes beyond the parser's
# negated-literal fold, fails the target.
lint:
	$(DUNE) exec bin/sqlancer.exe -- lint -d sqlite -s 1 --databases 10000
	$(DUNE) exec bin/sqlancer.exe -- lint -d mysql -s 1 --databases 10000
	$(DUNE) exec bin/sqlancer.exe -- lint -d postgres -s 1 --databases 10000

# Bounded-exhaustive expression table: per dialect, a t0(k, a, b) per pair
# of column types holding every pair of 18 probe values, and ~3,200
# expressions per table.  Each row's membership in SELECT k FROM t0 WHERE e
# must equal the oracle interpreter's verdict on it; exits non-zero on a
# disagreement.  About 40 s; too slow for `dune runtest`.
exprtable:
	$(DUNE) exec test/exprtable/exprtable.exe

# Formatting check.  The development container ships no ocamlformat binary,
# so the check is skipped (with a notice) when it is unavailable.
fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
		$(DUNE) build @fmt; \
	else \
		echo "ocamlformat not installed; skipping fmt check"; \
	fi

# Telemetry overhead gate: the same campaign with a live registry vs the
# noop sink (interleaved, best-of-6), asserting identical bug sets and a
# <5% wall-time overhead.  Writes BENCH_telemetry.json.
telemetry:
	$(DUNE) exec bench/main.exe -- telemetry

# Flight-recorder overhead gate: the same campaign with the ring-buffer
# recorder on vs the noop sink (interleaved, best-of-6), asserting
# identical bug sets and a <5% wall-time overhead.  Writes
# BENCH_trace.json.
trace:
	$(DUNE) exec bench/main.exe -- trace

# Coverage-guided generation gate: per-bug blind vs guided time to first
# detection (guided must re-detect everything blind does — guidance is
# strictly additive), plus the frontier-accounting overhead estimate
# (<5% of a blind campaign).  Writes BENCH_frontier.json.
frontier:
	$(DUNE) exec bench/main.exe -- frontier

# Plan-space differential oracle: bug-free sweeps in every dialect must
# find no divergence (soundness), each targeted planner-bug sweep must
# (detection), and the oracle's campaign overhead at fan-out cap 4 must
# stay under 15%.  Writes BENCH_plandiff.json.
plandiff:
	$(DUNE) exec bin/sqlancer.exe -- plan-diff -d sqlite -s 1 --databases 300
	$(DUNE) exec bin/sqlancer.exe -- plan-diff -d mysql -s 1 --databases 300
	$(DUNE) exec bin/sqlancer.exe -- plan-diff -d postgres -s 1 --databases 300
	$(DUNE) exec bin/sqlancer.exe -- plan-diff -d sqlite -s 1 --databases 300 -b Sq_skip_scan_distinct
	$(DUNE) exec bin/sqlancer.exe -- plan-diff -d sqlite -s 1 --databases 300 -b Sq_or_index_dedup
	$(DUNE) exec bin/sqlancer.exe -- plan-diff -d sqlite -s 1 --databases 300 -b Sq_desc_index_range
	$(DUNE) exec bench/main.exe -- plandiff

# Constant-optimization oracle gate: the bug-free seed sweep in every
# dialect must pass (soundness: the simplifier is semantics-preserving),
# each targeted constant-folding-bug sweep must (detection), and the
# oracle's campaign overhead must stay under 15% with identical report
# sets on the unaffected oracles.  Writes BENCH_constopt.json.
constopt:
	$(DUNE) exec bin/sqlancer.exe -- const-opt -d sqlite -s 1 --databases 300
	$(DUNE) exec bin/sqlancer.exe -- const-opt -d mysql -s 1 --databases 300
	$(DUNE) exec bin/sqlancer.exe -- const-opt -d postgres -s 1 --databases 300
	$(DUNE) exec bin/sqlancer.exe -- const-opt -d sqlite -s 1 --databases 300 -b Sq_fold_null_and
	$(DUNE) exec bin/sqlancer.exe -- const-opt -d sqlite -s 1 --databases 300 -b Sq_fold_affinity_cmp
	$(DUNE) exec bin/sqlancer.exe -- const-opt -d sqlite -s 1 --databases 300 -b Sq_fold_not_null_true
	$(DUNE) exec bench/main.exe -- constopt

# Fleet observability gate: scaling (per-core efficiency >= 0.8 at 4
# workers, core-aware so single-core CI is interpretable), exact merge
# (the fleet aggregate's totals equal a sequential campaign's over the
# same seeds), and kill recovery (a SIGKILLed shard's unfinished lease
# tail is requeued with no seed lost or double-merged).  Writes
# BENCH_fleet.json.
fleet:
	$(DUNE) exec bench/main.exe -- fleet

# Sampling profile of one benchmark workload (W=hunt-default, query-heavy,
# write-heavy-j2 or bug-hunt): writes profile-$(W).folded (collapsed
# stacks, flamegraph input) and prints the top self and inclusive frames.
# Samples land at OCaml safepoints, so shares are a guide, not exact costs.
W ?= hunt-default
profile:
	$(DUNE) exec bench/profile.exe -- --workload $(W)

# Source line counts of lib/, bin/ and bench/ (.ml, .mli and dune files),
# the figures CHANGES.md and ROADMAP.md record.
loc:
	@for d in lib bin bench; do \
		printf '%-6s ' $$d; \
		find $$d \( -name '*.ml' -o -name '*.mli' -o -name dune \) -print0 \
			| xargs -0 cat | wc -l; \
	done

clean:
	$(DUNE) clean
