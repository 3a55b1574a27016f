"""Behaviour lock on stored traces: one digest over the bytes `write_trace`
writes for every bundled scenario under its authored seed and for the 4 x 4
grid.  A change to the stored format (header, event lines, accepted-route
records, footer) changes it, even where every trace digest holds.

The value is checked in this process and again in a subprocess under a
different PYTHONHASHSEED.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from srpsim import bundled_scenarios, load_scenario, run_scenario, write_trace
from test_golden_grid import grid

STORED_DIGEST = "5bd67d31f6766485"


def stored_trace_digest() -> str:
    cases = [load_scenario(p) for p in bundled_scenarios()] + [grid(4)]
    h = hashlib.blake2b(digest_size=8)
    with tempfile.TemporaryDirectory() as out:
        path = Path(out) / "run.trace"
        for scenario in cases:
            write_trace(path, run_scenario(scenario))
            h.update(path.read_bytes())
    return h.hexdigest()


def test_stored_trace_bytes():
    assert len(bundled_scenarios()) == 37
    assert stored_trace_digest() == STORED_DIGEST


def test_stored_trace_bytes_under_another_hash_seed():
    here = Path(__file__).resolve().parent
    src = here.parent / "src"
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "1" if env.get("PYTHONHASHSEED") == "0" else "0"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), str(here), env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c",
         "from test_stored_traces import stored_trace_digest; "
         "print(stored_trace_digest())"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == STORED_DIGEST
