"""The summary arithmetic of `tools/bench_pairs.py`, on synthetic pairs: no
bench run is started."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "runs_per_s", "unit": "1/s", "better": "higher", "bound": 0.15},
    {"name": "run_ms_p50", "unit": "ms", "better": "lower", "bound": 0.15},
]


def _pairs(parent_rate, change_rate, parent_ms, change_ms, failed=(0, 0)):
    return [{"parent": {"runs_per_s": pr, "run_ms_p50": pm, "attempted": 100,
                        "failed": failed[0]},
             "change": {"runs_per_s": cr, "run_ms_p50": cm, "attempted": 110,
                        "failed": failed[1]}}
            for pr, cr, pm, cm in zip(parent_rate, change_rate, parent_ms, change_ms)]


def test_medians_quartiles_and_pair_wins():
    out = bench_pairs.summarise(
        _pairs([10, 11, 12, 13, 14], [12, 13, 14, 15, 9],
               [2.0, 2.0, 2.0, 2.0, 2.0], [1.0, 1.0, 1.0, 3.0, 2.0]), METRICS)
    assert out["pairs"] == 5
    rate = out["runs_per_s"]
    assert (rate["parent_median"], rate["change_median"], rate["parent_iqr"]) == (12, 13, 2)
    assert rate["change_vs_parent"] == round(13 / 12 - 1, 4)
    assert rate["change_better_pairs"] == 4  # the last pair is lost
    assert rate["within_bound"] and not rate["median_gain_over_parent_iqr"]
    ms = out["run_ms_p50"]
    assert (ms["parent_median"], ms["change_median"], ms["parent_iqr"]) == (2.0, 1.0, 0.0)
    assert ms["change_vs_parent"] == -0.5
    assert ms["change_better_pairs"] == 3  # a tie counts for neither side
    assert ms["within_bound"] and ms["median_gain_over_parent_iqr"]
    assert out["failed"] == {"parent": 0, "change": 0,
                             "attempted_parent": 500, "attempted_change": 550}


@pytest.mark.parametrize("change, within", [(0.86, True), (0.84, False)])
def test_a_lower_rate_is_within_its_bound_above_the_bound(change, within):
    out = bench_pairs.summarise(_pairs([1.0] * 3, [change] * 3, [1.0] * 3, [1.0] * 3),
                                METRICS)
    assert out["runs_per_s"]["within_bound"] is within
    assert out["runs_per_s"]["change_better_pairs"] == 0


@pytest.mark.parametrize("change, within", [(1.14, True), (1.16, False)])
def test_a_higher_time_is_within_its_bound_below_the_bound(change, within):
    out = bench_pairs.summarise(_pairs([1.0] * 3, [1.0] * 3, [1.0] * 3, [change] * 3),
                                METRICS)
    assert out["run_ms_p50"]["within_bound"] is within


def test_failures_are_summed_per_side():
    out = bench_pairs.summarise(_pairs([1] * 4, [1] * 4, [1] * 4, [1] * 4, failed=(0, 2)),
                                METRICS)
    assert out["failed"]["parent"] == 0 and out["failed"]["change"] == 8


def test_one_pair_has_no_spread():
    assert bench_pairs.median_iqr([5.0]) == (5.0, 0.0)
    assert bench_pairs.median_iqr([1.0, 2.0, 3.0, 4.0]) == (2.5, 1.5)
