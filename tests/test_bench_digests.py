"""Behaviour lock on the benchmark: the combined trace digest of round 0 of
each workload, as `python3 bench/run.py --workload <w> --seed 0 --digest`
prints it.  A change to what any run does changes one of these values.
Also the counts of one traced run, which a pure speed-up must not move, and
a guard that the bench's tracer still finds every name it wraps."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

BENCH_DIGESTS = {
    "fuzz_mix": "de39fc4a33c576cf",
    "accuracy_cells": "2ee19e6477934648",
    "grid_flood": "84f0b83e97d6b13e",
    "corpus_check": "28e6c638740e4c54",
}


@pytest.mark.parametrize("workload", sorted(BENCH_DIGESTS))
def test_bench_digest(workload):
    out = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "0", "--digest"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == BENCH_DIGESTS[workload]


# counts of `python3 bench/run.py --workload fuzz_mix --seed 3 --trace 1`
TRACE_COUNTS = {
    "simcore.events": 122175,
    "simcore.deliveries": 39024,
    "simcore.msg_digest_calls": 15139,
    "identity.mac_calls": 8677,
    "srp.discards": 8498,
    "verifier.routes": 1992,
}


def test_traced_run_counts():
    out = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "fuzz_mix",
         "--seed", "3", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    metrics = json.loads(out.stdout.splitlines()[-1])["metrics"]
    assert {name: metrics[name]["value"] for name in TRACE_COUNTS} == TRACE_COUNTS


def test_bench_tracer_finds_every_function_it_wraps():
    """The bench's tracer wraps srpsim functions and methods by name; a
    rename or deletion of any of them must fail here, not only in a traced
    bench run."""
    code = "import tracing; tracing.Tracer().install(); print('installed')"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "bench")])}
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "installed"
