"""`tools/flood_mem.py` on small grids: each row it prints is measured on a
flood whose stored trace checks out."""

import importlib.util
import tracemalloc
from pathlib import Path

from srpsim import run_scenario
from srpsim.harness import render_trace

_PATH = Path(__file__).resolve().parent.parent / "tools" / "flood_mem.py"
_spec = importlib.util.spec_from_file_location("flood_mem", _PATH)
flood_mem = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(flood_mem)


def test_a_row_measures_the_stored_flood(tmp_path):
    path = tmp_path / "flood.trace"
    tracemalloc.start()
    try:
        row = flood_mem.measure(5, str(path))
    finally:
        tracemalloc.stop()
    scen = flood_mem.grid_flood(5)
    res = run_scenario(scen)
    assert len(scen.nodes) == 25 and res.records
    assert path.read_bytes() == render_trace(scen.name, res.seed, res.trace.lines,
                                             res.records, res.digest).encode()
    assert (row["k"], row["lines"], row["file"]) == (5, len(res.trace), path.stat().st_size)
    assert row["run"] > 0 and row["write"] > 0 and row["check"] > 0


def test_prints_one_table_row_per_grid(capsys):
    assert flood_mem.main(["3", "4"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("| grid | trace lines |") and len(out) == 4
    assert out[2].startswith("| 3 x 3 | ") and out[3].startswith("| 4 x 4 | ")
    assert not tracemalloc.is_tracing()
