"""`tools/reach.py` on a small fixture module: it lists exactly the
statements that did not run, and its committed residue gives each
statement a reason."""

import importlib.util
import runpy
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "reach.py"
_spec = importlib.util.spec_from_file_location("reach", _PATH)
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

FIXTURE = '''\
"""A module docstring."""


def branch(x):
    """A function docstring has no code."""
    if x:
        return "yes"
    return ("no"
            if x is not None else None)


def never():
    raise RuntimeError("never called")


class Box:
    size: int = 1

    @staticmethod
    def grow(n):
        for _ in range(n):
            n -= 1
        return n
'''


def test_the_listing_names_each_statement_that_did_not_run(tmp_path):
    folder = tmp_path.resolve()
    path = folder / "fixture.py"
    path.write_text(FIXTURE)
    result, ran = reach.traced(folder, lambda: runpy.run_path(str(path))["branch"](0))
    assert result == "no"
    assert reach.unreached(path, ran[str(path)]) == [
        (7, "branch", "return 'yes'"),
        (13, "never", "raise RuntimeError('never called')"),
        (21, "Box.grow", "for _ in range(n):"),
        (22, "Box.grow", "n -= 1"),
        (23, "Box.grow", "return n")]
    # nothing outside the folder is recorded
    assert set(ran) == {str(path)}


def test_every_residue_line_names_a_module_and_a_reason():
    residue = reach.read_residue()
    assert residue
    for key, reason in residue.items():
        module, _, statement = key.partition(" ")
        assert (reach.ROOT / module).is_file() and ": " in statement, key
        assert reason.strip(), key
