"""The statements of `src/srpsim` that a pytest run never executes.

    python3 tools/reach.py [PYTEST ARGS ...]

Runs pytest in this process with the given arguments, under a
`sys.settrace` line tracer that records only frames of files in
`src/srpsim`, then prints each statement none of whose own lines ran, as
`path:line qualname: statement`.  A statement's own lines are its header's
or its whole text, less the statements nested in it; a statement with no
code of its own, such as a docstring, is never listed.  Runs in
subprocesses are not seen.

`tools/reach_residue.txt` lists the statements expected to stay unreached,
one per line, as `path qualname: statement  # reason`.  The tool ends by
naming each unreached statement the residue does not list and each residue
statement that ran; it exits 1 if there is one, else with pytest's status.
Over the whole suite it takes minutes, so the suite does not run it; the
CI workflow does, under one interpreter.  Besides pytest, it uses only the
standard library.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "srpsim"
RESIDUE = Path(__file__).resolve().parent / "reach_residue.txt"


def traced(folder: Path, call) -> tuple[object, dict[str, set[int]]]:
    """`call()`'s result, and the lines that ran, by file, in the files in
    `folder` while it ran."""
    prefix = str(folder.resolve()) + "/"
    ran: dict[str, set[int]] = {}

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        lines = ran.setdefault(name, set())

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line
        return on_line

    before = sys.gettrace()
    sys.settrace(on_call)
    threading.settrace(on_call)
    try:
        return call(), ran
    finally:
        threading.settrace(None)
        sys.settrace(before)


def _code_lines(code) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def unreached(path: Path, ran: set[int]) -> list[tuple[int, str, str]]:
    """(line, qualname, statement) of each statement of the module at
    `path` that has code of its own, none of which is in `ran`."""
    source = path.read_text()
    code = _code_lines(compile(source, str(path), "exec"))
    found = []

    def visit(node, qualname):
        for child in ast.iter_child_nodes(node):
            inner = qualname
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if qualname == "<module>" else f"{qualname}.{child.name}"
            if isinstance(child, ast.stmt):
                start = min([child.lineno] + [d.lineno for d in
                                              getattr(child, "decorator_list", ())])
                own = set(range(start, child.end_lineno + 1))
                for sub in ast.walk(child):
                    if isinstance(sub, ast.stmt) and sub is not child:
                        own -= set(range(sub.lineno, sub.end_lineno + 1))
                if own & code and not own & ran:
                    found.append((child.lineno, qualname,
                                  ast.unparse(child).split("\n")[0]))
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def read_residue(path: Path = RESIDUE) -> dict[str, str]:
    """`path qualname: statement` -> reason, for each residue line."""
    residue = {}
    for line in path.read_text().splitlines():
        if line and not line.startswith("#"):
            key, _, reason = line.rpartition("  # ")
            residue[key] = reason
    return residue


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    import pytest

    status, ran = traced(PACKAGE, lambda: pytest.main(argv))
    listed = []
    for path in sorted(PACKAGE.glob("*.py")):
        rel = path.relative_to(ROOT)
        for line, qualname, text in unreached(path, ran.get(str(path), set())):
            print(f"{rel}:{line} {qualname}: {text}")
            listed.append(f"{rel} {qualname}: {text}")
    residue = read_residue()
    unexplained = [key for key in listed if key not in residue]
    stale = [key for key in residue if key not in listed]
    print(f"{len(listed)} statements never ran; {len(unexplained)} not in "
          f"{RESIDUE.name}, and {len(stale)} of its {len(residue)} ran")
    for key in unexplained:
        print(f"  not in the residue: {key}")
    for key in stale:
        print(f"  in the residue but ran: {key}")
    return 1 if unexplained or stale else int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
