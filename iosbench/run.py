#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 iosbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds the iosbench binary from source
(CMake, Release, into .bench_build/iosbench), runs the workload in its own
process, and prints as its last line one JSON object:

    {"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value": .., "unit": ..}}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. An untraced run sets the workload up
several times, each in a fresh process (the measured process is the last),
and reports the median set-up time as setup_s. The exit code is 0
only when the build, the run and every correctness check succeed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build" / "iosbench"
OUT_DIR = ROOT / ".bench_build" / "out"
BINARY = BUILD_DIR / "iosbench"

# Set-up runs in fresh processes until at least SETUP_MIN_REPEATS of them
# and SETUP_BUDGET_S of set-up time are done (at most SETUP_MAX_REPEATS), so
# a fast set-up is repeated often enough for a steady median.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 15
SETUP_BUDGET_S = 2.0
# All processes of one run, build excluded, must end inside the 180 s a run
# may take; a process still running at this budget is killed.
RUN_BUDGET_S = 170
READY = "IOSBENCH_READY"

# Per-layer metrics are named after the layer they measure. A workload that
# does not exercise a layer group reports its metrics as 0.
SEARCH_LAYERS = ("models.", "api.", "core.", "runtime.", "schedule.")
SERVE_LAYERS = ("client.", "daemon.", "net.", "serve.")
WORKLOAD_LAYERS = {
    "search_cold": SEARCH_LAYERS,
    "search_warm": SEARCH_LAYERS,
    "serve_daemon": SERVE_LAYERS,
}


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark binary; exits 1 on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    # A configure that failed leaves no build files behind, so it reruns.
    if not any((BUILD_DIR / f).exists() for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "iosbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build step {' '.join(cmd[:2])} failed: {e}")
            sys.exit(1)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            log(f"build step {' '.join(cmd[:2])} failed")
            sys.exit(1)


def run_process(args, deadline):
    """Runs the binary, killing it at the monotonic `deadline`; returns
    (set-up seconds, stdout lines after the ready marker, exit code). Set-up
    is timed from process start to the marker."""
    start = time.monotonic()
    proc = subprocess.Popen([str(BINARY)] + args, stdout=subprocess.PIPE,
                            text=True)
    killer = threading.Timer(max(0.0, deadline - start), proc.kill)
    killer.start()
    ready_at = None
    lines = []
    try:
        for line in proc.stdout:
            if ready_at is None and line.strip() == READY:
                ready_at = time.monotonic()
            else:
                lines.append(line.rstrip("\n"))
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        # A killed search_warm process leaves its profile databases behind.
        for leftover in OUT_DIR.glob(f"*-{proc.pid}-*.json"):
            leftover.unlink()
    if ready_at is None:
        log(f"iosbench {' '.join(args)} never finished set-up (exit {code})")
        sys.exit(1)
    return ready_at - start, lines, code


def fill_unexercised_layers(metrics, per_layer, workload):
    """Reports the per-layer metrics of layers the workload does not
    exercise as 0."""
    own = WORKLOAD_LAYERS[workload]
    others = tuple(p for p in SEARCH_LAYERS + SERVE_LAYERS if p not in own)
    for m in per_layer:
        if m["name"] not in metrics and m["name"].startswith(others):
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}


def matches_declared(metrics, declared):
    """True when the metrics are exactly the declared ones, with their units."""
    want = {m["name"]: m["unit"] for m in declared}
    problems = {
        "missing": sorted(set(want) - set(metrics)),
        "undeclared": sorted(set(metrics) - set(want)),
        "wrong unit": sorted(n for n in want
                             if n in metrics and metrics[n]["unit"] != want[n]),
    }
    for what, names in problems.items():
        if names:
            log(f"{what} metrics: {', '.join(names)}")
    return not any(problems.values())


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"unknown workload {args.workload}")
        sys.exit(1)
    build()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + RUN_BUDGET_S

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--out-dir", str(OUT_DIR)]
    setups = []
    while not args.trace and len(setups) < SETUP_MAX_REPEATS - 1 and (
            len(setups) < SETUP_MIN_REPEATS - 1 or sum(setups) < SETUP_BUDGET_S):
        setup_s, _, code = run_process(common + ["--setup-only"], deadline)
        if code != 0:
            log("set-up failed")
            sys.exit(1)
        setups.append(setup_s)
    setup_s, lines, code = run_process(
        common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
        deadline)
    setups.append(setup_s)
    if not lines:
        log(f"iosbench printed no result (exit {code})")
        sys.exit(1)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"iosbench printed no result (exit {code})")
        sys.exit(1)

    metrics = result["metrics"]
    if args.trace:
        declared = spec["per_layer"]
        fill_unexercised_layers(metrics, declared, args.workload)
    else:
        declared = spec["end_to_end"]
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    names_ok = matches_declared(metrics, declared)
    print(json.dumps(result, sort_keys=True))
    sys.exit(0 if code == 0 and result["correct"] and names_ok else 1)


if __name__ == "__main__":
    main()
