"""Each input or output form has one owner module, which defines its names
and imports only what the table below allows:
- `srpsim/trace.py` defines the trace line, the whole-trace passes and the
  stored form, and imports no srpsim module but `srp`, so code that reads
  traces needs neither the engine nor the harness;
- `srpsim/reader.py` holds every rule for reading a scenario file, an
  attack's params or a campaign's settings, and imports no srpsim module.
No other module defines an owned name."""

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
READER_NAMES = {
    "ScenarioError", "FieldError", "_REQUIRED", "read_at", "take", "read_object",
    "fields", "read_node", "read_list", "read_int", "read_count", "read_choice",
    "exact_int", "exact_number",
}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _bound(nodes) -> set[str]:
    """Every name a def, class or assignment among `nodes` binds."""
    names = set()
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return names


def _defined(tree: ast.Module) -> set[str]:
    """Every name the module binds, at any depth."""
    return _bound(ast.walk(tree))


def _module_level(tree: ast.Module) -> set[str]:
    """The names the module binds at module level: `fields` is a local name
    in other modules."""
    return _bound(tree.body)


# owner module: (the srpsim modules it imports, the names only it defines,
# how a module's definitions are found)
OWNERS = {
    "trace.py": ({"srp"}, TRACE_NAMES, _defined),
    "reader.py": (set(), READER_NAMES, _module_level),
}


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


@pytest.mark.parametrize("owner", sorted(OWNERS))
def test_owner_defines_its_names_and_imports_only_its_layers(owner):
    imports, names, defined = OWNERS[owner]
    tree = _tree(SRC / owner)
    assert _srpsim_imports(tree) == imports
    assert names <= defined(tree)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_other_module_defines_an_owned_name(path):
    tree = _tree(path)
    for owner, (_, names, defined) in OWNERS.items():
        if path.name != owner:
            assert not names & defined(tree), owner
