"""Behaviour lock: one digest over the trace digests of the bundled corpus
(authored seed, then seeds 0-9) and of a fixed fuzz sweep (300 seeds per
adversary class and mode).  Any change to what a run does changes it.

The value is checked in this process and again in a subprocess under a
different PYTHONHASHSEED, so set or dict iteration order cannot leak into a
trace.
"""

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

from srpsim import AdversaryClass, bundled_scenarios, load_scenario, run_scenario
from srpsim.harness import random_scenario

CORPUS_DIGEST = "d4fae33a37b23d51"
GOLDEN_DIGEST = "ebc0ed52d3835f18"


def golden_digests():
    """Returns (corpus-only hex digest, full hex digest)."""
    h = hashlib.blake2b(digest_size=8)
    for path in bundled_scenarios():
        scenario = load_scenario(path)
        for seed in [scenario.config.seed] + list(range(10)):
            r = run_scenario(scenario, seed)
            h.update(f"{path.stem} {r.seed} {r.digest:016x}\n".encode())
    corpus = h.copy().hexdigest()
    for klass in AdversaryClass:
        for mode in ("basic", "augmented"):
            for s in range(300):
                sc = random_scenario(random.Random(f"fuzz-scenario|{s}"), klass, mode, 8, s)
                h.update(f"{klass.value} {mode} {s} {run_scenario(sc).digest:016x}\n".encode())
    return corpus, h.hexdigest()


def test_golden_digest():
    assert golden_digests() == (CORPUS_DIGEST, GOLDEN_DIGEST)


def test_golden_digest_under_another_hash_seed():
    here = Path(__file__).resolve().parent
    src = here.parent / "src"
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "1" if env.get("PYTHONHASHSEED") == "0" else "0"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), str(here), env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c",
         "from test_golden import golden_digests; print(*golden_digests())"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == [CORPUS_DIGEST, GOLDEN_DIGEST]
