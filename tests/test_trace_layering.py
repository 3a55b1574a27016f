"""The trace has one owner: `srpsim/trace.py` defines the trace line, the
whole-trace passes and the stored form, and imports no srpsim module but
`srp`, so code that reads traces needs neither the engine nor the harness."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "srpsim"
TRACE_NAMES = {
    "TraceEvent", "parse_trace_line", "TraceView",
    "_CHUNK", "line_chunks", "trace_digest_of_lines",
    "TRACE_HEADER", "_trace_pieces", "render_trace", "write_trace",
    "TraceFormatError", "read_trace", "_QUERY", "_ACCEPT", "_accepted_routes",
    "_first_difference", "bind_trace",
}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _defined(tree: ast.Module) -> set[str]:
    """Every name a def, class or assignment in the module binds."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return names


def _srpsim_imports(tree: ast.Module) -> set[str]:
    """The srpsim modules the module imports from, by their last part."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".", 1)[1] if "." in a.name else a.name
                         for a in node.names if a.name.split(".")[0] == "srpsim")
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "srpsim":
                continue
            if node.level == 0:
                module = module.partition(".")[2]
            found.update([module] if module else [a.name for a in node.names])
    return found


def test_trace_imports_only_srp():
    tree = _tree(SRC / "trace.py")
    assert _srpsim_imports(tree) == {"srp"}
    assert TRACE_NAMES <= _defined(tree)


@pytest.mark.parametrize("path", sorted(set(SRC.glob("*.py")) - {SRC / "trace.py"}),
                         ids=lambda p: p.name)
def test_no_other_module_defines_a_trace_name(path):
    assert not TRACE_NAMES & _defined(_tree(path))
