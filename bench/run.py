"""srpsim benchmark.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; srpsim is imported from its `src/`.
The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

--trace 0 measures for --seconds and reports the end-to-end metrics.
--trace 1 runs a fixed number of rounds untraced and then traced, and
reports the per-layer metrics and the tracing overhead.  See README.md.

Two helper modes serve the benchmark itself and the README:
--setup-probe  set up, print "ready" and exit (timed by the parent for setup_s)
--digest       print the combined trace digest of round 0 and exit
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_SAMPLES = 9
# rounds of the --trace 1 run: fixed, so its counts repeat exactly
TRACED_ROUNDS = {"fuzz_mix": 24, "accuracy_cells": 20, "grid_flood": 12,
                 "corpus_check": 18}
# Median time of reference_loop() on the machine README.md describes.
REFERENCE_S = 0.012


def reference_loop(n=4000):
    """Fixed interpreter work of the simulator's kind (a heap of events,
    formatted lines, dict counts, short blake2b digests).  It never changes
    with srpsim, so its time measures how fast the machine runs right now."""
    queue, seen = [], {}
    for i in range(n):
        heapq.heappush(queue, ((i * 7919) % 1000 / 7.0, i, ("x", i)))
    while queue:
        t, i, payload = heapq.heappop(queue)
        line = f"{t!r} {i} {payload[0]}"
        seen[line] = seen.get(line, 0) + 1
        hashlib.blake2b(line.encode(), digest_size=4).hexdigest()


def slowness():
    """How much slower than nominal the machine runs now (1.0 = nominal)."""
    t0 = time.perf_counter()
    reference_loop()
    return (time.perf_counter() - t0) / REFERENCE_S


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true")
    p.add_argument("--digest", action="store_true")
    return p.parse_args(argv)


def import_program():
    if not (SRC / "srpsim" / "__init__.py").is_file():
        sys.exit(f"bench: no srpsim sources under {SRC}; run from a source checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import srpsim
    if Path(srpsim.__file__).resolve().parent != SRC / "srpsim":
        sys.exit(f"bench: imported srpsim from {srpsim.__file__}, not {SRC}")


class Tally:
    """What a stretch of rounds did: per-round rates, per-run times,
    operation counts, problems found by the oracle, and digests."""

    def __init__(self):
        self.round_rates = []   # (runs / s, events / s) per round, speed-normalised
        self.run_s = []         # speed-normalised time of each simulating operation
        self.busy_s = 0.0       # speed-normalised time inside srpsim calls
        self.slowness = []      # slowness() after each round
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = {}       # op key -> trace digest
        self.first_round = []   # digests of round 0, in order


def run_round(workload, r, tally):
    busy = 0.0
    runs = events = 0
    times = []
    for op in workload.ops(r):
        tally.attempted += 1
        t0 = time.perf_counter()
        try:
            value = op.call()
        except Exception:
            tally.failed += 1
            print(f"bench: {op.key} raised:\n{traceback.format_exc()}", file=sys.stderr)
            workload.capture.take()
            continue
        dt = time.perf_counter() - t0
        busy += dt
        out = op.judge(value)
        if out.failed:
            tally.failed += 1
        tally.problems += [f"{op.key}: {p}" for p in out.problems]
        if out.runs:
            runs += out.runs
            events += out.events
            times.append(dt)
            tally.digests[op.key] = out.digest
            if r == 0:
                tally.first_round.append(out.digest)
    # Each round is scaled by the machine's speed measured right after it:
    # this box's speed swings by a quarter within seconds.
    slow = slowness()
    tally.slowness.append(slow)
    tally.busy_s += busy / slow
    tally.run_s += [t / slow for t in times]
    if runs:
        tally.round_rates.append((runs / busy * slow, events / busy * slow))


def measure(workload, seconds=None, rounds=None):
    """Whole rounds until `seconds` have passed, or exactly `rounds` rounds."""
    tally = Tally()
    gc.collect()
    end = time.perf_counter() + (seconds or 0)
    r = 0
    while True:
        run_round(workload, r, tally)
        r += 1
        if (r >= rounds) if rounds is not None else (time.perf_counter() >= end):
            return tally


def combined_digest(digests) -> str:
    h = hashlib.blake2b(digest_size=8)
    for d in digests:
        h.update(f"{d:016x}\n".encode())
    return h.hexdigest()


def setup_seconds(args):
    """Median time from starting a fresh interpreter to the end of set-up,
    each sample scaled by the machine's speed measured around it."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        before = slowness()
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as p:
            line = p.stdout.readline()
            t1 = time.perf_counter()
            p.communicate(timeout=60)
        if line.strip() != "ready" or p.returncode != 0:
            sys.exit(f"bench: set-up probe failed (exit {p.returncode})")
        samples.append((t1 - t0) * 2 / (before + slowness()))
    return statistics.median(samples), samples


def replay_problems(workload, tally, args):
    """Behaviour lock: a sample of operations repeated in this process gives
    the same digests, and for fuzz_mix a second interpreter with another hash
    seed gives the same combined digest of round 0."""
    problems = []
    for op in workload.ops(0)[:6]:
        if op.key in tally.digests:
            again = op.judge(op.call()).digest
            if again != tally.digests[op.key]:
                problems.append(f"{op.key}: digest {again:016x} on replay, "
                                f"{tally.digests[op.key]:016x} before")
    if workload.name == "fuzz_mix":
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = "1" if env.get("PYTHONHASHSEED") == "0" else "0"
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--digest"]
        out = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                             text=True, timeout=120)
        mine = combined_digest(tally.first_round)
        theirs = out.stdout.strip()
        if out.returncode != 0 or theirs != mine:
            problems.append(f"combined digest {mine} here, {theirs!r} under "
                            f"PYTHONHASHSEED={env['PYTHONHASHSEED']}")
    return problems


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] \
        if len(values) > 1 else values[0]


def main(argv=None):
    args = parse_args(argv)
    import_program()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT / f"{args.workload}-{args.seed}")
    workload.prepare()
    if args.digest:
        print(combined_digest(measure(workload, rounds=1).first_round))
        return 0
    workload.warm_up()
    reference_loop()
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    if args.trace:
        from tracing import Tracer
        rounds = TRACED_ROUNDS[args.workload]
        tally = measure(workload, rounds=rounds)
        tracer = Tracer()
        tracer.install()
        workload.prepare()
        traced = measure(workload, rounds=rounds)
        tracer.write(OUT / f"spans-{args.workload}-{args.seed}.tsv")
        metrics = tracer.metrics()
        slow = statistics.median(traced.slowness)
        metrics = {k: (v / slow if u == "ms" else v, u) for k, (v, u) in metrics.items()}
        metrics["bench.trace_overhead"] = (traced.busy_s / tally.busy_s - 1, "ratio")
        problems = tally.problems + traced.problems
        if traced.digests != tally.digests:
            problems.append("traced and untraced runs gave different digests")
    else:
        setup_s, setup_samples = setup_seconds(args)
        tally = measure(workload, seconds=args.seconds)
        problems = tally.problems + replay_problems(workload, tally, args)
        run_ms = [t * 1e3 for t in tally.run_s]
        metrics = {
            "runs_per_s": (statistics.median(r for r, _ in tally.round_rates), "1/s"),
            "events_per_s": (statistics.median(e for _, e in tally.round_rates), "1/s"),
            "run_ms_p50": (statistics.median(run_ms), "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        print(f"run_ms_p90 {percentile(run_ms, 90):.4f} ms over {len(run_ms)} runs; "
              f"{len(tally.round_rates)} rounds; setup samples "
              f"{', '.join(f'{s:.4f}' for s in setup_samples)} s")
        print(f"combined digest of round 0: {combined_digest(tally.first_round)}")

    for line in workload.notes():
        print(line)
    for p in problems[:20]:
        print(f"PROBLEM {p}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"attempted {tally.attempted} failed {tally.failed}")
    print(json.dumps({
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
