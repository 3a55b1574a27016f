"""Peak memory of one flood and of storing and checking its trace.

    PYTHONPATH=src python3 tools/flood_mem.py [K ...]

For each K (default 20 50 100) it builds an adversary-free, always-up K x K
grid with one discovery from corner to corner (the scenario `grid_flood`
runs, at K = 20), and prints tracemalloc peaks in MiB:

- run: the peak of `run_scenario`, over what was held before it;
- write: the extra peak of `write_trace`, over what the run left held;
- check: the extra peak of `check_trace` on that file, which must pass;

with the trace's line count and the stored file's size.  The process-wide
memos are emptied before each K, so each row starts alike.  Only the
standard library and srpsim are used.
"""

from __future__ import annotations

import argparse
import os
import tempfile
import tracemalloc

from srpsim import check_trace, run_scenario, scenario_from_dict, write_trace
from srpsim.identity import clear_memos

MiB = 1 << 20


def grid_flood(k: int):
    """An always-up k x k grid, S and T at opposite corners, one discovery
    from S to T."""
    end = 10.0 * k + 40.0
    names = [["S" if (r, c) == (0, 0) else "T" if (r, c) == (k - 1, k - 1)
              else f"g{r:03d}_{c:03d}" for c in range(k)] for r in range(k)]
    links = [[names[r][c], names[r][c + 1], [[0.0, end]]]
             for r in range(k) for c in range(k - 1)]
    links += [[names[r][c], names[r + 1][c], [[0.0, end]]]
              for r in range(k - 1) for c in range(k)]
    return scenario_from_dict({
        "name": f"grid{k}x{k}",
        "config": {"tau": 1.0, "tx_time": 1.0, "end_time": end, "seed": 1},
        "nodes": [x for row in names for x in row],
        "links": links,
        "keys": [["S", "T"]],
        "discoveries": [{"src": "S", "dst": "T", "at": 1.0}],
    })


def extra_peak(call):
    """(call's result, its tracemalloc peak over what was held before it)."""
    held = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    out = call()
    return out, tracemalloc.get_traced_memory()[1] - held


def measure(k: int, path: str) -> dict:
    scenario = grid_flood(k)
    clear_memos()
    result, run = extra_peak(lambda: run_scenario(scenario))
    _, write = extra_peak(lambda: write_trace(path, result))
    (ok, messages, _), check = extra_peak(lambda: check_trace(path, scenario))
    if not ok:
        raise SystemExit(f"check_trace rejected the {k} x {k} trace: {messages}")
    return {"k": k, "lines": len(result.trace), "file": os.path.getsize(path),
            "run": run, "write": write, "check": check}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("k", nargs="*", type=int, default=[20, 50, 100],
                   help="grid sides to measure (default: 20 50 100)")
    args = p.parse_args(argv)
    print("| grid | trace lines | file MiB | run peak MiB | write_trace extra MiB "
          "| check_trace extra MiB |")
    print("| --- | ---: | ---: | ---: | ---: | ---: |")
    tracemalloc.start()
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for k in args.k:
                row = measure(k, os.path.join(tmp, "flood.trace"))
                print(f"| {k} x {k} | {row['lines']:,} | {row['file'] / MiB:.1f} "
                      f"| {row['run'] / MiB:.1f} | {row['write'] / MiB:.1f} "
                      f"| {row['check'] / MiB:.1f} |", flush=True)
    finally:
        tracemalloc.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
