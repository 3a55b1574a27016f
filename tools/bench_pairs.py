"""Alternating bench pairs for two checkouts, summarised as BENCH_*.json
files record them.

    python3 tools/bench_pairs.py --parent DIR --change DIR --out FILE \
        [--workloads w ...] [--pairs 10] [--seed 31] [--seconds 20] \
        [--claim WORKLOAD:METRIC]

Pair i runs `python3 bench/run.py --workload w --seed <seed + i> --seconds s
--trace 0` once in each checkout, the parent first on even i and the change
first on odd i; the workloads take turns within each pair index, so a drift
in the machine's speed reaches every workload alike.  Metric names, their
better direction and their bounds are read from the change's BENCHMARK.json.

FILE gets every run under "pairs" and, per workload, the "end_to_end"
block: the median of each side, the parent's interquartile range, the
change's relative difference, whether it is within the metric's bound, how
many pairs the change won, the operations that failed and the runs whose
result was not correct.  A metric whose parent interquartile range, over
the parent median, exceeds its bound gets "unresolved": true: the parent's
own spread hides any change the bound could judge.  With --claim, FILE
also gets a top-level "claim" block for that metric on that workload; it is
met when the change won at least nine pairs in ten and its median beats the
parent's by more than the parent's interquartile range.  FILE is rewritten
after every pair, so a cut series keeps what it measured.

A bench run that exits non-zero, or whose last line of output is not JSON,
ends the series with exit code 1 and a message naming the workload, the
side, the seed, the exit code and the tail of the run's stderr; FILE keeps
the pairs finished before it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
STDERR_TAIL = 10  # lines of a failed run's stderr that the message quotes


def median_iqr(values) -> tuple[float, float]:
    """(median, third quartile minus first) with inclusive quartiles."""
    if len(values) < 2:
        return values[0], 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return statistics.median(values), q3 - q1


def summarise(pairs: list[dict], metrics: list[dict]) -> dict:
    """The end_to_end block of one workload's pairs.  Each pair holds one
    run per side: {"parent": {metric: value, "attempted": n, "failed": n,
    "correct": bool}, "change": {...}}.  `metrics` are BENCHMARK.json's
    end_to_end entries."""
    out = {"pairs": len(pairs)}
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        parent_median, parent_iqr = median_iqr(parent)
        change_median = statistics.median(change)
        rel = change_median / parent_median - 1
        gain = change_median - parent_median if higher else parent_median - change_median
        out[name] = {
            "parent_median": parent_median,
            "change_median": change_median,
            "parent_iqr": parent_iqr,
            "change_vs_parent": round(rel, 4),
            "bound": m["bound"],
            "within_bound": rel >= -m["bound"] if higher else rel <= m["bound"],
            "change_better_pairs": sum((c > p) if higher else (c < p)
                                       for p, c in zip(parent, change)),
            "median_gain_over_parent_iqr": gain > parent_iqr,
        }
        if parent_iqr > m["bound"] * parent_median:
            out[name]["unresolved"] = True
    out["failed"] = {side: sum(p[side]["failed"] for p in pairs) for side in SIDES}
    out["failed"].update({f"attempted_{side}": sum(p[side]["attempted"] for p in pairs)
                          for side in SIDES})
    out["incorrect_runs"] = {side: sum(not p[side]["correct"] for p in pairs)
                             for side in SIDES}
    return out


def claim_block(workload: str, metric: dict, summary: dict) -> dict:
    """The claim that `metric` (a BENCHMARK.json end_to_end entry) is better
    on `workload`, judged from the workload's summary."""
    s, n = summary[metric["name"]], summary["pairs"]
    return {
        "metric": metric["name"],
        "workload": workload,
        "better": metric["better"],
        "n": n,
        "change_better_pairs": s["change_better_pairs"],
        "parent_median": s["parent_median"],
        "change_median": s["change_median"],
        "parent_iqr": s["parent_iqr"],
        "median_difference": s["change_median"] - s["parent_median"],
        "change_vs_parent": s["change_vs_parent"],
        "met": 10 * s["change_better_pairs"] >= 9 * n and s["median_gain_over_parent_iqr"],
    }


class BenchRunError(Exception):
    """A bench run that exited non-zero or printed no JSON last line."""


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = out.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if out.returncode == 0 and lines else None
    except ValueError:  # a last line that is not JSON
        result = None
    if not isinstance(result, dict):
        tail = "\n".join(out.stderr.splitlines()[-STDERR_TAIL:]) or "(empty)"
        raise BenchRunError(f"exit code {out.returncode}, stderr tail:\n{tail}")
    return {"attempted": result["attempted"], "failed": result["failed"],
            "correct": result["correct"],
            **{k: v["value"] for k, v in result["metrics"].items()}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--workloads", nargs="+", default=None,
                   help="default: every workload in BENCHMARK.json")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=31, help="workload seed of pair 0")
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--claim", metavar="WORKLOAD:METRIC", default=None,
                   help="write the claim block of this end_to_end metric")
    args = p.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    claim = None
    if args.claim is not None:
        claimed, _, name = args.claim.partition(":")
        metric = next((m for m in bench["end_to_end"] if m["name"] == name), None)
        if claimed not in workloads or metric is None:
            p.error(f"--claim {args.claim}: expected one of the workloads run "
                    "and an end_to_end metric, as WORKLOAD:METRIC")
        claim = (claimed, metric)
    checkouts = {"parent": args.parent, "change": args.change}
    pairs = {w: [] for w in workloads}

    def write_out():
        summaries = {name: summarise(ps, bench["end_to_end"])
                     for name, ps in pairs.items() if ps}
        out = {"commands": {"end_to_end": "python3 bench/run.py --workload <w> "
                            f"--seed <{args.seed} + pair> --seconds {args.seconds:g} "
                            "--trace 0, parent and change alternating which runs first"}}
        if claim is not None and claim[0] in summaries:
            out["claim"] = claim_block(*claim, summaries[claim[0]])
        out["end_to_end"] = summaries
        out["pairs"] = pairs
        args.out.write_text(json.dumps(out, indent=1) + "\n")

    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for w in workloads:
            seed = args.seed + i
            pair = {"pair": i + 1, "first": order[0], "seed": seed}
            for side in order:
                try:
                    pair[side] = run_bench(checkouts[side], w, seed, args.seconds)
                except BenchRunError as e:
                    write_out()
                    print(f"bench_pairs: {w} run failed on the {side} side "
                          f"({checkouts[side]}), seed {seed}: {e}", file=sys.stderr)
                    return 1
            pairs[w].append(pair)
            print(f"{w} pair {i + 1}: " + ", ".join(
                f"{side} {pair[side]['runs_per_s']:.4g} runs/s" for side in SIDES),
                file=sys.stderr, flush=True)
            write_out()
    return 0


if __name__ == "__main__":
    sys.exit(main())
