.PHONY: all test release-test bench examples clean quick-bench chaos oracle golden backend-bench backend-check metrics-bench storm storm-sweep storm-bench adversary adversary-bench spans spans-bench lint hostbench-smoke pins fig6 ci

all:
	dune build @all

test:
	dune runtest

# the whole tier-1 suite again in the release profile (no -opaque, so
# the optimiser inlines across modules), in a build directory of its
# own; every golden digest, metrics/span pin and cram output must come
# out as in the default profile
release-test:
	dune build --profile release --build-dir _build-release
	dune runtest --profile release --build-dir _build-release

# the chaos acceptance checks at smoke scale; rewrites BENCH_chaos.json
chaos:
	dune exec bench/main.exe -- chaos --quick

# the differential suite: executor vs the pure policy oracles
oracle:
	dune exec test/test_oracle.exe

# fixed-seed scenarios must reproduce the digests in test/golden/
golden:
	dune exec test/test_golden.exe

# interp vs compiled executor on the same scenarios; fails on digest
# divergence or on a compiled-speedup regression (executor-attributed
# < 1.0x anywhere, spin-heavy whole-run < 1.5x) and rewrites
# BENCH_backend.json
backend-bench:
	dune exec bench/main.exe -- backend --quick

# interp vs compiled without timing gates.  The join-small and
# aim-small recordings must diff equal (the *-interp.trace and
# *-compiled.trace files stay behind for inspection), and `hipec stat`
# fails unless both executors attribute the same per-opcode simulated
# cycles (join-small) and charge the same per-tenant fuel and build the
# same spans (storm-smoke, one run per backend with the metrics
# registry, the trace collector and the span consumer all attached)
backend-check:
	for s in join-small aim-small; do \
	  dune exec bin/hipec_cli.exe -- trace record \
	    --scenario $$s --backend interp -o $$s-interp.trace || exit 1; \
	  dune exec bin/hipec_cli.exe -- trace record \
	    --scenario $$s --backend compiled -o $$s-compiled.trace || exit 1; \
	  dune exec bin/hipec_cli.exe -- trace diff \
	    $$s-interp.trace $$s-compiled.trace || exit 1; \
	done
	dune exec bin/hipec_cli.exe -- stat --json --scenario join-small
	dune exec bin/hipec_cli.exe -- stat --spans --json --scenario storm-smoke

# per-scenario latency percentile tables; rewrites BENCH_metrics.json
metrics-bench:
	dune exec bench/main.exe -- metrics

# the multi-tenant overload storm at smoke scale (100 tenants); exits
# nonzero on a conservation break, audit violation or honest starvation
storm:
	dune exec bin/hipec_cli.exe -- storm --smoke

# the storm at full scale and past the old ~1.3k-tenant breaking point,
# with the shipped 500 ms auditor; each run must exit 0 (no exception,
# no audit violation, conservation ok, honest tenants alive), and the
# runs listed with a digest must print exactly that trace digest.  Each
# run's wall seconds are printed next to its digest (not gated)
storm-sweep:
	dune build bin/hipec_cli.exe
	for run in 1000:84d7424c768b2f6e 1400: 1500: 2000:9a32e3181b2b31d8; do \
	  n=$${run%%:*}; want=$${run#*:}; \
	  echo "== storm --tenants=$$n"; \
	  t0=$$(date +%s.%N); \
	  out=$$(dune exec bin/hipec_cli.exe -- storm --tenants=$$n) || exit 1; \
	  t1=$$(date +%s.%N); \
	  got=$$(printf '%s\n' "$$out" | awk '$$1 == "digest" { print $$2 }'); \
	  echo "digest $$got  wall $$(echo "$$t0 $$t1" | awk '{ printf "%.2f", $$2 - $$1 }') s"; \
	  if [ -n "$$want" ] && [ "$$got" != "$$want" ]; then \
	    echo "storm --tenants=$$n: digest $$got, expected $$want"; exit 1; \
	  fi; \
	done

# storm isolation metrics under both backends; fails on digest
# instability or backend divergence and rewrites BENCH_storm.json
storm-bench:
	dune exec bench/main.exe -- storm --quick

# the anomaly-witness regression gate: the seeded search must find and
# confirm a FIFO Belady anomaly, must find none against the adaptive
# policy at the same budget, and the pinned golden witness pair must
# replay digest-identically on both backends with the anomaly intact
adversary:
	dune exec bin/hipec_cli.exe -- adversary report --smoke
	dune exec bin/hipec_cli.exe -- adversary replay-witness \
	  test/golden/witness-fifo-lo.trace test/golden/witness-fifo-hi.trace

# witness search throughput and the fifo-falls/adaptive-stands gate at
# the full budget; rewrites BENCH_adversary.json
adversary-bench:
	dune exec bench/main.exe -- adversary

# critical-path span attribution on the storm and chaos scenarios;
# exits nonzero when the two backends disagree on the span digest
spans:
	dune exec bin/hipec_cli.exe -- spans --scenario storm-smoke --json -o SPANS.json
	dune exec bin/hipec_cli.exe -- spans --scenario chaos-smoke

# online span-building overhead and stream-identity gates; rewrites
# BENCH_spans.json (spans off: event stream bit-identical; spans on:
# < 10% of the whole-run wall)
spans-bench:
	dune exec bench/main.exe -- spans --quick

# the static analyzer over every built-in policy and every pseudo-code
# example; exits nonzero on any error-severity finding
lint:
	for p in fifo lru mru clock second-chance adaptive greedy; do \
	  echo "== builtin:$$p"; \
	  dune exec bin/hipec_cli.exe -- lint --builtin $$p || exit 1; \
	done
	for f in examples/*.hp; do \
	  echo "== $$f"; \
	  dune exec bin/hipec_cli.exe -- lint $$f || exit 1; \
	done

# the host-time benchmark (BENCHMARK.json) at reduced size: builds
# hostbench/hostbench.exe against the current library API, runs every
# workload once and fails unless every named metric appears
hostbench-smoke:
	python3 hostbench/run.py --smoke

# every pinned host-benchmark fingerprint: seeds 1-10 of each workload,
# one second each, must reproduce hostbench/pinned.json.  Fails unless
# each run's result line reads "correct": true and "failed": 0
pins:
	dune build hostbench/hostbench.exe
	for w in join-mru chaos-t3 storm-1k; do \
	  for s in 1 2 3 4 5 6 7 8 9 10; do \
	    last=$$(python3 hostbench/run.py --workload $$w --seed $$s \
	      --seconds 1 --trace 0 | tail -n 1); \
	    printf '%s\n' "$$last" | python3 -c 'import json, sys; \
	      r = json.load(sys.stdin); \
	      sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)' \
	      || { echo "pins: $$w seed $$s: $$last"; exit 1; }; \
	    echo "pins: $$w seed $$s ok"; \
	  done; \
	done

# Figure 6 at full scale; exits nonzero unless every run's measured
# faults equal the paper's analytic counts (PF_l for the LRU-like
# kernel, PF_m for HiPEC MRU)
fig6:
	dune exec bench/main.exe -- fig6

# What CI runs: full build, the whole test suite (which includes the
# oracle, golden, storm, span and adversary suites) in the default and
# the release profile, the policy lint
# gate, the chaos and storm acceptance checks at smoke scale, the
# storm tenant sweep at 1k-2k tenants with its pinned digests, the
# adversary regression gate, the span cross-backend gate, the
# host-time benchmark smoke run and every pinned host-benchmark
# fingerprint, the full-scale Figure 6 fault-count gate, the
# interp-vs-compiled trace and stat cross-checks, and the backend
# equivalence benches.
ci: all test release-test lint oracle golden chaos storm storm-sweep adversary spans hostbench-smoke pins fig6 backend-bench backend-check metrics-bench storm-bench adversary-bench spans-bench

bench:
	dune exec bench/main.exe

quick-bench:
	dune exec bench/main.exe -- --quick

examples:
	dune build @examples

clean:
	dune clean
