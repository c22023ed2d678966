#!/usr/bin/env python3
"""Host-time benchmark of the HiPEC simulator.

    python3 hostbench/run.py --workload join-mru --seed 1 --seconds 25 --trace 0

builds hostbench/hostbench.exe with dune from the checkout it sits in,
runs one workload in a closed loop (one process, one thread, each run
starting after the previous one ended) and prints every metric by name
and unit, then, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json (tracing off,
default executor backend); --trace 1 reports its per-layer metrics from
paired runs with each observability plane or ablation switched on.
Every run's simulated outputs are checked: against pinned.json where the
seed is pinned, otherwise against each other and the workload's
invariants.  --smoke runs every workload once at reduced size and checks
that every named metric appears with its unit; --pin SEED... rewrites
pinned.json from the current program.  NOTES.md says why each workload
is there.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "hostbench", "hostbench.exe")
PINNED = os.path.join(HERE, "pinned.json")
WORKLOADS = ["join-mru", "chaos-t3", "storm-1k"]
# The measuring window is split over this many fresh processes, each
# timed from spawn to the end of its warm-up run as one set-up sample.
# The samples are then spread over the window, not taken back to back
# inside one of the host's slow phases.
PROCESSES = 4
# a run of the benchmark must end within 180 s whatever the program does
PROCESS_LIMIT_S = 150
# The host slows each vCPU in phases of its own that can outlast a whole
# measurement (NOTES.md).  Moving the program to the next allowed CPU
# after every run samples all of them; it still runs on one at a time.
CPUS = sorted(os.sched_getaffinity(0))
_turn = 0


def pin_next(pid):
    global _turn
    if len(CPUS) > 1:
        try:
            os.sched_setaffinity(pid, {CPUS[_turn % len(CPUS)]})
        except OSError:
            pass  # it has just exited
        _turn += 1


class BenchError(Exception):
    pass


def build():
    cmd = ["dune", "build", "--root", ".", "./hostbench/hostbench.exe"]
    try:
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"build failed: {e}")
    if p.returncode != 0:
        sys.stderr.write(p.stdout + p.stderr)
        raise BenchError("build failed")


def spawn(mode, workload, seed, seconds, smoke):
    """Run the program; return (seconds until its first line, its JSON lines)."""
    cmd = [EXE, mode, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if smoke:
        cmd.append("--smoke")
    t0 = time.perf_counter()
    p = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    pin_next(p.pid)
    watchdog = threading.Timer(PROCESS_LIMIT_S, p.kill)
    watchdog.start()
    first, lines = None, []
    try:
        for line in p.stdout:
            if first is None:
                first = time.perf_counter() - t0
            lines.append(json.loads(line))
            pin_next(p.pid)
    finally:
        p.stdout.close()
        rc = p.wait()
        watchdog.cancel()
    if rc != 0:
        raise BenchError(f"{' '.join(cmd)} exited with {rc}")
    return first, lines


class Checker:
    """Counts attempted and failed runs; a run fails if it broke an
    invariant or its simulated outputs differ from the reference: the
    pinned one for a pinned seed, else the first run seen."""

    def __init__(self, workload, seed, smoke):
        pins = {} if smoke else load_pins().get(workload, {})
        self.expected = pins.get(str(seed))
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, fingerprint, problem):
        self.attempted += 1
        if self.expected is None and problem is None:
            self.expected = fingerprint
        if problem is None and fingerprint != self.expected:
            problem = f"outputs {fingerprint!r}, expected {self.expected!r}"
        if problem is not None:
            self.failed += 1
            self.problems.append(problem)


def load_pins():
    with open(PINNED) as f:
        return json.load(f)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, seed, seconds, smoke):
    check = Checker(workload, seed, smoke)
    setups, heaps = [], []

    def warmup(first, line):
        check.run(line["fingerprint"], line["problem"])
        setups.append(first)
        heaps.append(line["top_heap_mb"])

    runs = []
    processes = 1 if smoke else PROCESSES
    for _ in range(processes):
        first, lines = spawn("measure", workload, seed, seconds / processes, smoke)
        warmup(first, lines[0])
        runs += lines[1:]
    if not runs:
        raise BenchError("no timed run finished")
    for r in runs:
        check.run(r["fingerprint"], r["problem"])
    # a run that raised early must not read as the fastest
    runs = [r for r in runs if r["problem"] is None] or runs
    # The host's speed swings by up to 1.6x in phases lasting seconds, so
    # a median moves with the mix of phases in the window; the fastest
    # run is the program's own cost and moves far less (NOTES.md).
    fastest = min(runs, key=lambda r: r["wall_s"])
    metrics = {
        "wall_s": metric(fastest["wall_s"], "s"),
        "faults_per_s": metric(fastest["faults"] / fastest["wall_s"], "1/s"),
        "alloc_words_per_fault": metric(
            statistics.median(r["minor_words"] / max(1, r["faults"]) for r in runs), "words"),
        "peak_heap_mb": metric(statistics.median(heaps), "MB"),
        "setup_s": metric(min(setups), "s"),
    }
    # failed_frac is 0 whenever the benchmark is healthy, so it is printed
    # here and carried in the result's attempted/failed, not as a metric
    shown = dict(metrics, failed_frac=metric(check.failed / check.attempted, "ratio"))
    print(f"{workload} seed {seed}: {len(runs)} timed runs, {len(setups)} set-ups")
    for name, m in shown.items():
        print(f"  {name:24s} {m['value']:.6g} {m['unit']}")
    return check, metrics


def per_layer(workload, seed, seconds, smoke):
    check = Checker(workload, seed, smoke)
    _, lines = spawn("trace", workload, seed, seconds, smoke)
    out = lines[-1]
    for b in out["baselines"]:
        check.run(b["fingerprint"], b["problem"])
    # the other runs were compared with their round's baseline in-process
    check.attempted += out["attempted"] - len(out["baselines"])
    check.failed += len(out["problems"])
    check.problems += out["problems"]
    print(f"{workload} seed {seed}: {out['rounds']} rounds of paired runs")
    for name, m in out["metrics"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    return check, out["metrics"]


def result(check, metrics):
    for p in check.problems:
        print(f"FAILED RUN: {p}", file=sys.stderr)
    return {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": metrics,
    }


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def smoke():
    """Every workload once at reduced size, both modes; every declared
    metric must appear with its declared unit and the output must parse."""
    bad = []
    for workload in WORKLOADS:
        for trace, kind, fn in ((0, "end_to_end", end_to_end), (1, "per_layer", per_layer)):
            res = json.loads(json.dumps(result(*fn(workload, 1, 0.001, True))))
            want = declared(kind)
            got = {n: m["unit"] for n, m in res["metrics"].items()}
            if got != want:
                bad.append(f"{workload} --trace {trace}: metrics {got}, declared {want}")
            if not res["correct"] or res["attempted"] < 1:
                bad.append(f"{workload} --trace {trace}: {res['failed']} of {res['attempted']} runs failed")
            if any(not isinstance(m["value"], (int, float)) for m in res["metrics"].values()):
                bad.append(f"{workload} --trace {trace}: a metric is not a number")
    for b in bad:
        print("SMOKE: " + b, file=sys.stderr)
    print("smoke " + ("failed" if bad else "passed"))
    return 1 if bad else 0


def pin(seeds):
    """Record each seed's simulated outputs from one run of the current
    program; a run that breaks an invariant is not pinned."""
    pins = {}
    for workload in WORKLOADS:
        pins[workload] = {}
        for seed in seeds:
            _, lines = spawn("measure", workload, seed, 0, False)
            if lines[0]["problem"] is not None:
                raise BenchError(f"{workload} seed {seed}: {lines[0]['problem']}")
            pins[workload][str(seed)] = lines[0]["fingerprint"]
    with open(PINNED, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--pin", type=int, nargs="+", metavar="SEED")
    args = ap.parse_args()
    try:
        build()
        if args.smoke:
            return smoke()
        if args.pin:
            return pin(args.pin)
        if args.workload is None:
            ap.error("--workload is required")
        fn = per_layer if args.trace else end_to_end
        res = result(*fn(args.workload, args.seed, args.seconds, False))
    except BenchError as e:
        print(f"hostbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
