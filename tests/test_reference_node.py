"""The reference correct node stays independent of production: besides the
names it may share, `tests/reference_node.py` imports nothing from
`srpsim`, so the differential test never compares the act code with
itself."""

import ast
from pathlib import Path

import pytest

from srpsim import srp

REFERENCE = Path(__file__).with_name("reference_node.py")

# what the reference may share with production: the messages, the route
# record, the rule registry and its constants, the configuration error,
# the node state and the two runtime objects a node holds
SHARED = {"Rreq", "Rrep", "RouteRecord", "RULES", "ConfigurationError", "NodeState",
          "KeyRing", "QosRuntime"} | {
    name for name, value in vars(srp).items() if any(value is r for r in srp.RULES)}


def production_imports(source: str) -> list[str]:
    """Every import in `source` of a name from `srpsim` that is not shared,
    and every import of an `srpsim` module itself."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "srpsim"]
        elif (isinstance(node, ast.ImportFrom) and node.module
              and node.module.split(".")[0] == "srpsim"):
            found += [f"{node.module}.{a.name}" for a in node.names if a.name not in SHARED]
    return found


def test_reference_node_imports_only_shared_names():
    assert production_imports(REFERENCE.read_text()) == []


@pytest.mark.parametrize("source, found", [
    ("from srpsim.srp import Rreq, receive_rreq", ["srpsim.srp.receive_rreq"]),
    ("from srpsim.adversary import Broadcast", ["srpsim.adversary.Broadcast"]),
    ("from srpsim import srp", ["srpsim.srp"]),
    ("import srpsim.srp as s", ["srpsim.srp"]),
    ("def f():\n    from srpsim.srp import admit_relay", ["srpsim.srp.admit_relay"]),
    ("from srpsim.srp import RELAY_DUPLICATE, NodeState", []),
])
def test_the_guard_names_each_production_import(source, found):
    assert production_imports(source) == found
