"""Metamorphic relations: pairs of runs whose accepted routes the paper's
model says must be equal, with no oracle for either run.

R1, the independent class is its gate.  An independent adversary that
follows the protocol (`passive`) drops silently whatever a correct node
would discard, and otherwise acts as that correct node does.  So replacing
every adversary of a scenario with an independent `passive` one, and then
making those nodes correct, must not change a single accepted record
(route, t1, t2, reported).  The runs are the independent class's fuzz
slice, seeds 0-249 in both modes, and every bundled scenario whose
adversaries are all independent.

R3, a node with no links changes no trace line.  A node `iso` with no links
and no keys, added at the end of the roster or at its front, hears and sends
nothing, so every run writes the trace lines of the run without it.  The
runs are every bundled scenario under its authored seed and seeds 0-4; the
loaded config keeps the reply waits computed from the original roster.
Fuzz scenarios are left out: their scripts draw from the roster."""

import dataclasses
import random

import pytest

from srpsim import AdversaryClass, bundled_scenarios, build, load_scenario
from srpsim.harness import FuzzConfig, random_scenario
from srpsim.scenario import AdversarySpec

INDEPENDENT = AdversaryClass.INDEPENDENT
FUZZ_SEEDS = range(250)


def _run(scenario, seed=None):
    engine = build(scenario, seed)
    engine.run()
    return engine


def _records(scenario):
    return [(r.route, r.t1, r.t2, r.reported) for r in _run(scenario).accepted]


def _r1_holds(scenario) -> bool:
    """The run with every adversary made independent and `passive` accepts
    what the run with those nodes correct accepts."""
    passive = {node: AdversarySpec(INDEPENDENT, "passive") for node in scenario.adversaries}
    return (_records(dataclasses.replace(scenario, adversaries=passive))
            == _records(dataclasses.replace(scenario, adversaries={})))


def _fuzz(seed, mode):
    """The independent fuzz campaign's scenario of run seed `seed`."""
    return random_scenario(random.Random(f"fuzz-scenario|{seed}"), INDEPENDENT, mode,
                           FuzzConfig().max_nodes, seed)


@pytest.mark.parametrize("mode", ["basic", "augmented"])
def test_r1_on_the_independent_fuzz_slice(mode):
    assert [seed for seed in FUZZ_SEEDS if not _r1_holds(_fuzz(seed, mode))] == []


INDEPENDENT_ONLY = [path for path in bundled_scenarios()
                    if (adversaries := load_scenario(path).adversaries)
                    and all(s.klass is INDEPENDENT for s in adversaries.values())]


def test_the_corpus_has_independent_only_scenarios():
    assert INDEPENDENT_ONLY  # else the bundled half of R1 checks nothing


@pytest.mark.parametrize("path", INDEPENDENT_ONLY, ids=lambda p: p.stem)
def test_r1_on_a_bundled_scenario(path):
    assert _r1_holds(load_scenario(path))


@pytest.mark.parametrize("path", bundled_scenarios(), ids=lambda p: p.stem)
def test_r3_an_unlinked_node_changes_no_trace_line(path):
    scenario = load_scenario(path)
    for seed in (None, *range(5)):
        lines = _run(scenario, seed).trace.lines
        for nodes in (scenario.nodes + ("iso",), ("iso",) + scenario.nodes):
            assert _run(dataclasses.replace(scenario, nodes=nodes), seed).trace.lines == lines, \
                (nodes[0], seed)
