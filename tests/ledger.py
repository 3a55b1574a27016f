"""Per-run ledgers behind the behaviour locks.

A lock pins one 64-bit digest over many runs.  Its ledger, committed next
to it, lists every run's row (key, run seed, ..., trace digest) in hash
order, so the pinned value can be rebuilt from the file, and a live run that
moved can be named instead of reported as "digest differs".

To re-pin after a deliberate behaviour change, run the lock's module as a
script (`PYTHONPATH=src:tests python tests/test_golden.py`); it rewrites
the ledger, and the pin constants are then edited by hand.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path


def combined_digest(rows) -> str:
    """The lock's value: blake2b-64 over one line per run, the row's fields
    joined by spaces."""
    h = hashlib.blake2b(digest_size=8)
    for row in rows:
        h.update((" ".join(map(str, row)) + "\n").encode())
    return h.hexdigest()


def read_ledger(path: Path) -> dict[str, list[tuple]]:
    """Section name -> rows, each row a tuple."""
    return {name: [tuple(row) for row in rows]
            for name, rows in json.loads(path.read_text()).items()}


def write_ledger(path: Path, sections: dict[str, list[tuple]]) -> None:
    """One row per line, so a re-pin shows as a line diff."""
    parts = []
    for name, rows in sections.items():
        body = ",\n".join("    " + json.dumps(list(row)) for row in rows)
        parts.append(f"  {json.dumps(name)}: [\n{body}\n  ]")
    path.write_text("{\n" + ",\n".join(parts) + "\n}\n")


def moved_runs(ledger_rows, live_rows, limit: int = 5) -> list[str]:
    """The first `limit` runs whose live row differs from the ledger's, as
    "ledger -> live" lines; a row missing on one side shows as None."""
    moved = (f"{want} -> {got}"
             for want, got in itertools.zip_longest(ledger_rows, live_rows)
             if want != got)
    return list(itertools.islice(moved, limit))
