"""The rule registry `srp.RULES` is the one list of discard verdicts: the
checks return only its entries, every discard a run writes names one, and
no module builds a verdict anywhere else."""

import ast
import random
from collections import Counter
from pathlib import Path

import pytest

import srpsim
from srpsim import (AdversaryClass, bundled_scenarios, load_scenario,
                    run_scenario, srp)
from srpsim.harness import random_scenario
from srpsim.srp import RULES

RULE_TEXTS = {rule.text for rule in RULES}
SOURCES = sorted(Path(srpsim.__file__).parent.glob("*.py"))
SWEEP_SEEDS = 150


def _verdict_details(lines):
    """The rule text of every discard and adv-noncompliant step line."""
    for line in lines:
        parts = line.split(" ", 6)
        if parts[3] == "step" and parts[5] in ("discard", "adv-noncompliant"):
            yield parts[6]


def test_entries_have_distinct_texts():
    assert len(RULE_TEXTS) == len(RULES)
    assert all(rule.text == f"{rule.step}:{rule.code}" for rule in RULES)


@pytest.fixture(scope="module")
def emitted():
    """Rule texts emitted by the bundled corpus and a fuzz sweep over both
    adversary classes and both modes."""
    seen = Counter()
    for path in bundled_scenarios():
        seen.update(_verdict_details(run_scenario(load_scenario(path)).trace.lines))
    for klass in AdversaryClass:
        for mode in ("basic", "augmented"):
            for seed in range(SWEEP_SEEDS):
                rng = random.Random(f"fuzz-scenario|{seed}")
                scenario = random_scenario(rng, klass, mode, 8, seed)
                seen.update(_verdict_details(run_scenario(scenario).trace.lines))
    return seen


def test_every_emitted_verdict_is_a_registry_entry(emitted):
    assert sum(emitted.values()) > 1000
    assert set(emitted) <= RULE_TEXTS, set(emitted) - RULE_TEXTS


def test_discards_are_built_only_in_the_registry():
    """`Discard(` is called only inside the `RULES = (...)` assignment of
    srp.py, each call named there, so a new rule has to join RULES."""
    registry = None
    srp_tree = ast.parse(Path(srp.__file__).read_text())
    for node in srp_tree.body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["RULES"]:
            registry = node
    assert registry is not None and isinstance(registry.value, ast.Tuple)
    allowed = set()
    for element in registry.value.elts:
        assert isinstance(element, ast.NamedExpr), ast.unparse(element)
        allowed.add(id(element.value))
    assert len(allowed) == len(RULES)
    stray = []
    for path in SOURCES:
        tree = srp_tree if path.name == "srp.py" else ast.parse(path.read_text())
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and ast.unparse(node.func).endswith("Discard")
                    and id(node) not in allowed):
                stray.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert not stray, stray
