"""Fuzz and accuracy campaigns: the report shape, one scenario and one run
per run seed, and the replay of any run from its seed."""

import ast
import re
from pathlib import Path

import pytest

from srpsim import AdversaryClass, FuzzConfig, GKind, Verdict, harness
from srpsim.cli import main as cli_main

SEED = 40
RUN_SCENARIO = harness.run_scenario


def _verdict(route, loop_free=True, fresh=True, never_up=(), accurate=None,
             error=None, bound=None, faulty=False):
    return Verdict(route=route, t1=1.0, t2=2.0, loop_free=loop_free, fresh=fresh,
                   weakly_fresh=True, never_up_links=never_up, weak_witness=None,
                   accurate=accurate, metric_error=error, delta_good_used=bound,
                   endpoints_faulty=faulty)


# the verdicts of runs SEED and SEED + 1
VERDICTS = [
    [_verdict(("S", "a", "S", "T"), loop_free=False, fresh=False,
              never_up=(("S", "a"),)),
     _verdict(("S", "b", "T"), accurate=False, error=0.5, bound=0.25)],
    [_verdict(("S", "c", "T"), loop_free=False, fresh=False,
              never_up=(("S", "c"),), faulty=True),
     _verdict(("S", "c", "a", "c", "T"), loop_free=False),
     _verdict(("S", "d", "T"), fresh=False, never_up=(("S", "d"), ("d", "T")))],
]


@pytest.fixture
def hand_built_runs(monkeypatch):
    """`harness.run_scenario` returns the hand-built VERDICTS of the run
    its scenario is seeded for, one accepted record per verdict."""
    def fake(scenario, seed=None):
        verdicts = VERDICTS[scenario.config.seed - SEED]
        return harness.RunResult(
            scenario=scenario, seed=scenario.config.seed, trace=None, digest=0,
            records=[None] * len(verdicts), verdicts=verdicts, expect_failures=[])
    monkeypatch.setattr(harness, "run_scenario", fake)


LOOPS = [
    {"seed": 40, "kind": "loop", "route": ["S", "a", "S", "T"], "detail": ""},
    {"seed": 41, "kind": "loop", "route": ["S", "c", "a", "c", "T"], "detail": ""},
]


def test_independent_report_lists_every_kind_in_run_order(hand_built_runs):
    report = harness.fuzz_campaign(FuzzConfig(
        runs=2, klass=AdversaryClass.INDEPENDENT, mode="augmented", seed=SEED))
    assert (report.runs, report.violation_count) == (2, 5)
    assert report.as_dict() == {
        "runs": 2, "class": "independent", "mode": "augmented",
        "accepted_routes": 5,
        "loop_violations": LOOPS,
        "freshness_violations": [
            {"seed": 40, "kind": "freshness", "route": ["S", "a", "S", "T"],
             "detail": "never-up links [('S', 'a')]"},
            {"seed": 41, "kind": "freshness", "route": ["S", "d", "T"],
             "detail": "never-up links [('S', 'd'), ('d', 'T')]"},
        ],
        "accuracy_violations": [
            {"seed": 40, "kind": "accuracy", "route": ["S", "b", "T"],
             "detail": "error 0.5 >= bound 0.25"},
        ],
    }


@pytest.mark.parametrize("mode", ["basic", "augmented"])
def test_arbitrary_report_lists_only_loops(hand_built_runs, mode):
    report = harness.fuzz_campaign(FuzzConfig(
        runs=2, klass=AdversaryClass.ARBITRARY, mode=mode, seed=SEED))
    assert (report.runs, report.violation_count) == (2, 2)
    assert report.as_dict() == {
        "runs": 2, "class": "arbitrary", "mode": mode, "accepted_routes": 5,
        "loop_violations": LOOPS, "freshness_violations": [],
        "accuracy_violations": [],
    }


def test_fuzz_prints_every_violation_grouped_by_kind(hand_built_runs, capsys):
    assert cli_main(["fuzz", "--runs", "2", "--class", "independent",
                     "--mode", "augmented", "--seed", str(SEED)]) == 1
    assert capsys.readouterr().out == (
        "fuzz campaign: 2 runs, class=independent, mode=augmented, "
        "max_nodes=8, seed=40\n"
        "accepted routes: 5\n"
        "loop violations: 2\n"
        "freshness violations: 2\n"
        "accuracy violations: 1\n"
        "  VIOLATION seed=40 kind=loop route=S>a>S>T \n"
        "  VIOLATION seed=41 kind=loop route=S>c>a>c>T \n"
        "  VIOLATION seed=40 kind=freshness route=S>a>S>T never-up links [('S', 'a')]\n"
        "  VIOLATION seed=41 kind=freshness route=S>d>T never-up links "
        "[('S', 'd'), ('d', 'T')]\n"
        "  VIOLATION seed=40 kind=accuracy route=S>b>T error 0.5 >= bound 0.25\n")


def test_accuracy_campaign_reports_only_accuracy(hand_built_runs):
    accepted, violations = harness.accuracy_campaign(
        GKind.ADD, 3, 0.1, 0.05, runs=2, seed=SEED)
    assert accepted == 5
    assert [v.as_dict() for v in violations] == [
        {"seed": 40, "kind": "accuracy", "route": ["S", "b", "T"],
         "detail": "error 0.5 >= bound 0.25"}]


def _count_calls(monkeypatch, *names):
    """Wrap each named harness global so its calls are counted."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _real=getattr(harness, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(harness, name, counted)
    return calls


def test_campaigns_make_one_scenario_and_one_run_per_run(monkeypatch):
    # bench/workloads.py and bench/tracing.py see a campaign's runs through
    # these module globals
    calls = _count_calls(monkeypatch, "run_scenario", "random_scenario",
                         "accuracy_scenario")
    assert harness.fuzz_campaign(FuzzConfig(runs=3, max_nodes=4)).runs == 3
    assert calls == {"run_scenario": 3, "random_scenario": 3, "accuracy_scenario": 0}
    harness.accuracy_campaign(GKind.MAX, 2, 0.1, 0.0, runs=2, seed=5)
    assert calls == {"run_scenario": 5, "random_scenario": 3, "accuracy_scenario": 2}


def test_one_loop_runs_the_scenarios():
    """harness.py calls `run_scenario` from exactly one function, the
    campaign runner, and that function holds the loop over runs."""
    tree = ast.parse(Path(harness.__file__).read_text())
    callers = [
        fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
        and any(isinstance(c, ast.Call) and isinstance(c.func, ast.Name)
                and c.func.id == "run_scenario" for c in ast.walk(fn))
    ]
    assert len(callers) == 1, [fn.name for fn in callers]
    assert any(isinstance(node, (ast.For, ast.While)) for node in ast.walk(callers[0]))


def _digests(monkeypatch, campaign):
    """The trace digest of every run `campaign()` makes, in run order."""
    digests = []

    def recording(*args, **kwargs):
        result = RUN_SCENARIO(*args, **kwargs)
        digests.append((result.scenario.name, result.digest))
        return result
    monkeypatch.setattr(harness, "run_scenario", recording)
    campaign()
    return digests


def test_an_accuracy_run_replays_from_its_seed(monkeypatch):
    cell = (GKind.ADD, 4, 0.1, 0.05)
    runs = _digests(monkeypatch, lambda: harness.accuracy_campaign(*cell, runs=3, seed=10))
    assert [name for name, _ in runs] == [f"accuracy-add-n4-{s}" for s in (10, 11, 12)]
    for i, run in enumerate(runs):
        assert _digests(monkeypatch, lambda: harness.accuracy_campaign(
            *cell, runs=1, seed=10 + i)) == [run]


def test_a_fuzz_run_replays_from_its_seed(monkeypatch):
    cfg = dict(klass=AdversaryClass.INDEPENDENT, mode="augmented")
    runs = _digests(monkeypatch, lambda: harness.fuzz_campaign(
        FuzzConfig(runs=3, seed=10, **cfg)))
    for i, run in enumerate(runs):
        assert _digests(monkeypatch, lambda: harness.fuzz_campaign(
            FuzzConfig(runs=1, seed=10 + i, **cfg))) == [run]


@pytest.mark.parametrize("field, value, message", [
    ("runs", -3, "runs: expected an integer >= 0, not -3"),
    ("runs", 2.0, "runs: expected an integer, not 2.0"),
    ("runs", True, "runs: expected an integer, not True"),
    ("mode", "augmentd", "mode: expected one of basic, augmented, not 'augmentd'"),
    ("klass", "arbitary", "klass: expected one of independent, arbitrary, not 'arbitary'"),
    ("max_nodes", 6.5, "max_nodes: expected an integer, not 6.5"),
    ("max_nodes", True, "max_nodes: expected an integer, not True"),
    ("max_nodes", 501, "max_nodes: expected at most 500, not 501"),
    ("max_nodes", 100000, "max_nodes: expected at most 500, not 100000"),
    ("seed", 1.5, "seed: expected an integer, not 1.5"),
    ("seed", False, "seed: expected an integer, not False"),
])
def test_fuzz_config_rejects_what_the_campaign_cannot_run(field, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        FuzzConfig(**{field: value})


def test_fuzz_config_reads_a_class_by_its_name():
    # as a scenario file's adversary `class` is read
    assert FuzzConfig(klass="independent").klass is AdversaryClass.INDEPENDENT


def test_fuzz_config_accepts_zero_runs(monkeypatch):
    calls = _count_calls(monkeypatch, "run_scenario")
    report = harness.fuzz_campaign(FuzzConfig(runs=0, mode="augmented"))
    assert (report.runs, report.as_dict()["mode"], calls) == (0, "augmented",
                                                              {"run_scenario": 0})


@pytest.mark.parametrize("links, runs, seed, message", [
    (0, 1, 0, "links: expected an integer >= 1, not 0"),
    (-2, 1, 0, "links: expected an integer >= 1, not -2"),
    (2.5, 1, 0, "links: expected an integer, not 2.5"),
    (2, -1, 0, "runs: expected an integer >= 0, not -1"),
    (2, 1, 1.5, "seed: expected an integer, not 1.5"),
    (2, 1, True, "seed: expected an integer, not True"),
])
def test_accuracy_campaign_rejects_an_impossible_cell(monkeypatch, links, runs, seed,
                                                      message):
    calls = _count_calls(monkeypatch, "run_scenario")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        harness.accuracy_campaign(GKind.ADD, links, 0.1, 0.0, runs=runs, seed=seed)
    assert calls == {"run_scenario": 0}


def test_accuracy_campaign_runs_a_one_link_line():
    assert harness.accuracy_campaign(GKind.ADD, 1, 0.1, 0.0, runs=0) == (0, [])
    accepted, violations = harness.accuracy_campaign(GKind.ADD, 1, 0.1, 0.0, runs=1)
    assert accepted >= 1 and violations == []


def test_progress_is_reported_after_every_thousand_runs(monkeypatch):
    def no_routes(scenario, seed=None):
        return harness.RunResult(scenario=scenario, seed=0, trace=None, digest=0,
                                 records=[], verdicts=[], expect_failures=[])
    monkeypatch.setattr(harness, "run_scenario", no_routes)
    seen = []
    result = harness.run_campaign(lambda run_seed: None, ("loop",), 2000, SEED,
                                  lambda done, runs: seen.append((done, runs)))
    assert result == (0, [])
    assert seen == [(1000, 2000), (2000, 2000)]
