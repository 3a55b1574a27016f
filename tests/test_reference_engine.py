"""Differential test of the engine and the correct-node driver: every run
here is made by the production engine and by `reference_engine`, and the two
must write the same trace lines, accept the same routes, end on the same
seq and give the same trace digest.  Runs come from both campaign generators,
under run seeds Hypothesis draws, and from fixed cases: every bundled
scenario under two seeds, a 5 x 5 grid and a 12 x 12 grid, whose trace is
longer than one slice of `trace_digest_of_lines`.  The tied-head cases are
in `test_simcore.TestLinkChangeSeeding`.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from srpsim import AdversaryClass, GKind, build, bundled_scenarios, load_scenario, simcore
from srpsim.harness import accuracy_scenario, random_scenario

from reference_engine import run_both
from test_golden_grid import grid

RUN_SEEDS = st.integers(0, 2 ** 32 - 1)


def assert_reference_equal(scen, seed=None):
    got, want = run_both(scen, seed)
    assert got.lines == want.lines
    assert got.accepted == want.accepted
    assert got._seq == want._seq
    assert got.trace_digest() == want.trace_digest()


@settings(max_examples=400, deadline=None)
@given(RUN_SEEDS, st.sampled_from(AdversaryClass), st.sampled_from(("basic", "augmented")),
       st.integers(4, 8))
def test_fuzz_runs(run_seed, klass, mode, max_nodes):
    # the scenario fuzz_campaign runs at this run seed
    rng = random.Random(f"fuzz-scenario|{run_seed}")
    assert_reference_equal(random_scenario(rng, klass, mode, max_nodes, run_seed))


@settings(max_examples=200, deadline=None)
@given(RUN_SEEDS, st.sampled_from(GKind), st.integers(1, 10),
       st.sampled_from((0.01, 0.1)), st.sampled_from((0.0, 0.05)))
def test_accuracy_runs(run_seed, kind, links, epsilon, delta_tilde):
    # the scenario accuracy_campaign runs at this run seed
    rng = random.Random(f"acc|{kind.value}|{links}|{epsilon}|{delta_tilde}|{run_seed}|0")
    assert_reference_equal(accuracy_scenario(kind, links, epsilon, delta_tilde,
                                             run_seed, rng))


@pytest.mark.parametrize("seed", [None, 2], ids=["authored-seed", "seed-2"])
@pytest.mark.parametrize("path", bundled_scenarios(), ids=lambda p: p.stem)
def test_bundled_scenarios(path, seed):
    assert_reference_equal(load_scenario(path), seed)


@pytest.mark.parametrize("seed", range(3))
def test_grid(seed):
    assert_reference_equal(grid(5), seed)


@pytest.mark.parametrize("seed", range(2))
def test_grid_longer_than_a_digest_slice(seed):
    scen = grid(12)
    assert len(build(scen, seed).run()) > simcore._CHUNK
    assert_reference_equal(scen, seed)
