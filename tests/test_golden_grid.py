"""Behaviour lock for larger topologies: one digest over the trace digests of
always-up k x k grids (k = 4, 8, 12; one discovery from corner to corner) and
of a 30-node random topology with link churn, each under run seeds 0-4.

The corpus lock (`test_golden.py`) covers topologies of at most 8 nodes,
where a sender reaches most of the roster.  Here most nodes are out of range
of any one sender, so a change in which nodes the link layer visits, or in
what order, changes the digest.

Every run's row (scenario name, run seed, accepted routes, trace digest) is
kept in `golden_grid_runs.json`; the pin is rebuilt from it, and a run that
moved is named.

The value is checked in this process and again in a subprocess under a
different PYTHONHASHSEED.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

from srpsim import run_scenario, scenario_from_dict

from ledger import combined_digest, moved_runs, read_ledger, write_ledger

GRID_DIGEST = "280633e6bc47931b"
LEDGER = Path(__file__).with_name("golden_grid_runs.json")


def grid(k: int):
    end = 10.0 * k + 40.0

    def name(r, c):
        if (r, c) == (0, 0):
            return "S"
        if (r, c) == (k - 1, k - 1):
            return "T"
        return f"g{r:02d}_{c:02d}"

    links = []
    for r in range(k):
        for c in range(k):
            if c + 1 < k:
                links.append([name(r, c), name(r, c + 1), [[0.0, end]]])
            if r + 1 < k:
                links.append([name(r, c), name(r + 1, c), [[0.0, end]]])
    return scenario_from_dict({
        "name": f"grid{k}",
        "config": {"end_time": end},
        "nodes": [name(r, c) for r in range(k) for c in range(k)],
        "links": links,
        "keys": [["S", "T"]],
        "discoveries": [{"src": "S", "dst": "T", "at": 1.0}],
    })


def churned(n: int = 30, seed: int = 7):
    """A random topology: an always-up backbone chain from S to T, plus
    random edges that go down, come up, or flap."""
    rng = random.Random(f"golden-grid|{seed}")
    end = 200.0
    inter = [f"n{i:02d}" for i in range(n - 2)]
    nodes = ["S", "T"] + inter
    chain = ["S"] + rng.sample(inter, 6) + ["T"]
    links = {tuple(sorted(e)): [[0.0, end]] for e in zip(chain, chain[1:])}
    for i, u in enumerate(nodes):
        for v in nodes[i + 1:]:
            e = tuple(sorted((u, v)))
            if e in links or rng.random() > 0.15:
                continue
            a = round(rng.uniform(2.0, 80.0), 3)
            b = round(rng.uniform(a + 5.0, 140.0), 3)
            c = round(rng.uniform(b + 5.0, end), 3)
            links[e] = rng.choice([[[0.0, a]], [[a, end]], [[a, b]],
                                   [[0.0, a], [b, c]]])
    return scenario_from_dict({
        "name": "churn30",
        "config": {"end_time": end},
        "nodes": nodes,
        "links": [[u, v, iv] for (u, v), iv in sorted(links.items())],
        "keys": [["S", "T"]],
        "discoveries": [{"src": "S", "dst": "T", "at": 1.0},
                        {"src": "S", "dst": "T", "at": 90.0}],
    })


def grid_runs() -> dict[str, list[tuple]]:
    """The row of every run, in hash order."""
    rows = []
    for scenario in [grid(4), grid(8), grid(12), churned()]:
        for seed in range(5):
            r = run_scenario(scenario, seed)
            rows.append((scenario.name, seed, len(r.records), f"{r.digest:016x}"))
    return {"grid": rows}


def grid_digest() -> str:
    return combined_digest(grid_runs()["grid"])


def test_ledger_rebuilds_the_pin():
    rows = read_ledger(LEDGER)["grid"]
    assert len(rows) == 20
    assert combined_digest(rows) == GRID_DIGEST


def test_grid_digest():
    ledger, live = read_ledger(LEDGER)["grid"], grid_runs()["grid"]
    moved = moved_runs(ledger, live)
    assert not moved, f"grid runs moved (ledger -> live): {moved}"
    assert combined_digest(live) == GRID_DIGEST


def test_grid_digest_under_another_hash_seed():
    here = Path(__file__).resolve().parent
    src = here.parent / "src"
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "1" if env.get("PYTHONHASHSEED") == "0" else "0"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), str(here), env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c",
         "from test_golden_grid import grid_digest; print(grid_digest())"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == [GRID_DIGEST]


if __name__ == "__main__":  # rewrite the ledger from live runs
    write_ledger(LEDGER, grid_runs())
