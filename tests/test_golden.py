"""Behaviour lock: one digest over the trace digests of the bundled corpus
(authored seed, then seeds 0-9) and of a fixed fuzz sweep (300 seeds per
adversary class and mode).  Any change to what a run does changes it.

Every run's row (scenario stem or fuzz class and mode, run seed, trace
digest) is kept in `golden_runs.json`; the pins are rebuilt from it, and a
run that moved is named.

The value is checked in this process and again in a subprocess under a
different PYTHONHASHSEED, so set or dict iteration order cannot leak into a
trace.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

from srpsim import AdversaryClass, bundled_scenarios, load_scenario, run_scenario
from srpsim.harness import random_scenario

from ledger import combined_digest, moved_runs, read_ledger, write_ledger

CORPUS_DIGEST = "d4fae33a37b23d51"
GOLDEN_DIGEST = "ebc0ed52d3835f18"
LEDGER = Path(__file__).with_name("golden_runs.json")


def golden_runs() -> dict[str, list[tuple]]:
    """The rows of the corpus runs and of the fuzz runs, in hash order."""
    corpus = []
    for path in bundled_scenarios():
        scenario = load_scenario(path)
        for seed in [scenario.config.seed] + list(range(10)):
            r = run_scenario(scenario, seed)
            corpus.append((path.stem, r.seed, f"{r.digest:016x}"))
    fuzz = []
    for klass in AdversaryClass:
        for mode in ("basic", "augmented"):
            for s in range(300):
                sc = random_scenario(random.Random(f"fuzz-scenario|{s}"), klass, mode, 8, s)
                fuzz.append((f"{klass.value} {mode}", s, f"{run_scenario(sc).digest:016x}"))
    return {"corpus": corpus, "fuzz": fuzz}


def pins(runs) -> tuple[str, str]:
    """(corpus-only hex digest, full hex digest) of the rows."""
    return (combined_digest(runs["corpus"]),
            combined_digest(runs["corpus"] + runs["fuzz"]))


def golden_digests():
    """Returns (corpus-only hex digest, full hex digest) of live runs."""
    return pins(golden_runs())


def test_ledger_rebuilds_the_pins():
    ledger = read_ledger(LEDGER)
    assert [len(rows) for rows in ledger.values()] == [407, 1200]
    assert pins(ledger) == (CORPUS_DIGEST, GOLDEN_DIGEST)


def test_a_moved_run_is_named():
    ledger = [("a", 1, "00"), ("b", 2, "11"), ("c", 3, "22")]
    assert moved_runs(ledger, ledger) == []
    assert moved_runs(ledger, [("a", 1, "00"), ("b", 2, "ff")]) == [
        "('b', 2, '11') -> ('b', 2, 'ff')", "('c', 3, '22') -> None"]
    assert moved_runs(ledger, [("x", 0, "99")] * 3, limit=2) == [
        "('a', 1, '00') -> ('x', 0, '99')", "('b', 2, '11') -> ('x', 0, '99')"]


def test_golden_digest():
    ledger, live = read_ledger(LEDGER), golden_runs()
    for section in ledger:
        moved = moved_runs(ledger[section], live[section])
        assert not moved, f"{section} runs moved (ledger -> live): {moved}"
    assert pins(live) == (CORPUS_DIGEST, GOLDEN_DIGEST)


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


if __name__ == "__main__":  # rewrite the ledger from live runs
    write_ledger(LEDGER, golden_runs())
