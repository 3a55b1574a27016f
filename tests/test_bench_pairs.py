"""The summary arithmetic of `tools/bench_pairs.py`, on synthetic pairs, and
its report of a failed run, on a fake checkout: no bench run is started."""

import importlib.util
import json
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


def _pairs(parent_rate, change_rate, parent_ms, change_ms, failed=(0, 0), incorrect=(0, 0)):
    """One pair per rate; the first incorrect[0] parent runs and the first
    incorrect[1] change runs are not correct."""
    return [{"parent": {"runs_per_s": pr, "run_ms_p50": pm, "attempted": 100,
                        "failed": failed[0], "correct": i >= incorrect[0]},
             "change": {"runs_per_s": cr, "run_ms_p50": cm, "attempted": 110,
                        "failed": failed[1], "correct": i >= incorrect[1]}}
            for i, (pr, cr, pm, cm) in enumerate(zip(parent_rate, change_rate,
                                                     parent_ms, change_ms))]


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
    assert out["incorrect_runs"] == {"parent": 0, "change": 0}


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


def test_incorrect_runs_are_counted_per_side():
    out = bench_pairs.summarise(_pairs([1] * 4, [1] * 4, [1] * 4, [1] * 4, incorrect=(1, 3)),
                                METRICS)
    assert out["incorrect_runs"] == {"parent": 1, "change": 3}


def _claim(parent, change, metric=METRICS[0]):
    ms = [1.0] * len(parent)
    rates, times = (parent, change), (ms, ms)
    if metric["name"] == "run_ms_p50":
        rates, times = times, rates
    summary = bench_pairs.summarise(_pairs(*rates, *times), METRICS)
    return bench_pairs.claim_block("grid_flood", metric, summary)


PARENT = [50.0, 51.0, 52.0, 52.0, 52.0, 52.0, 52.0, 52.0, 53.0, 54.0]  # IQR 0.0


def test_claim_met_on_nine_wins_and_a_gain_over_the_parent_iqr():
    change = [55.0] * 9 + [49.0]
    claim = _claim(PARENT, change)
    assert claim == {
        "metric": "runs_per_s", "workload": "grid_flood", "better": "higher", "n": 10,
        "change_better_pairs": 9, "parent_median": 52.0, "change_median": 55.0,
        "parent_iqr": 0.0, "median_difference": 3.0,
        "change_vs_parent": round(55 / 52 - 1, 4), "met": True}


def test_claim_not_met_on_eight_wins():
    claim = _claim(PARENT, [55.0] * 8 + [49.0, 49.0])
    assert claim["change_better_pairs"] == 8 and not claim["met"]


def test_claim_not_met_when_the_gain_is_within_the_parent_iqr():
    parent = [40.0, 45.0, 50.0, 55.0, 60.0] * 2  # median 50, IQR 10
    claim = _claim(parent, [p + 5.0 for p in parent])
    assert claim["change_better_pairs"] == 10 and claim["parent_iqr"] == 10.0
    assert claim["median_difference"] == 5.0 and not claim["met"]


def test_claim_on_a_lower_better_metric():
    claim = _claim([2.0] * 10, [1.5] * 10, METRICS[1])
    assert claim["better"] == "lower" and claim["median_difference"] == -0.5
    assert claim["change_better_pairs"] == 10 and claim["met"]


@pytest.mark.parametrize("claim", ["grid_flood:events", "nowhere:runs_per_s", "runs_per_s"])
def test_a_claim_off_the_workloads_or_metrics_is_refused(tmp_path, capsys, claim):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": "grid_flood"}], "end_to_end": METRICS}))
    with pytest.raises(SystemExit) as e:
        bench_pairs.main(["--parent", str(tmp_path), "--change", str(tmp_path),
                          "--out", str(tmp_path / "out.json"), "--claim", claim])
    assert e.value.code == 2 and "--claim" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_a_metric_whose_parent_spread_exceeds_its_bound_is_unresolved():
    # parent runs_per_s: median 10, IQR 2 (20% > the 15% bound); run_ms_p50:
    # median 1.0, IQR 0.1 (10%, inside it)
    out = bench_pairs.summarise(
        _pairs([8.0, 9.0, 10.0, 11.0, 12.0], [10.0] * 5,
               [0.8, 0.95, 1.0, 1.05, 1.2], [1.0] * 5), METRICS)
    assert out["runs_per_s"]["parent_iqr"] == 2.0
    assert out["runs_per_s"]["unresolved"] is True
    assert out["run_ms_p50"]["parent_iqr"] == pytest.approx(0.1)
    assert "unresolved" not in out["run_ms_p50"]


@pytest.mark.parametrize("spread, unresolved", [(1.4, False), (1.6, True)])
def test_unresolved_is_judged_against_the_metric_bound(spread, unresolved):
    # IQR = spread on a median of 10: 14% is inside the 15% bound, 16% is not
    parent = [10.0 - spread, 10.0 - spread / 2, 10.0, 10.0 + spread / 2, 10.0 + spread]
    out = bench_pairs.summarise(_pairs(parent, [10.0] * 5, [1.0] * 5, [1.0] * 5), METRICS)
    assert out["runs_per_s"]["parent_iqr"] == pytest.approx(spread)
    assert out["runs_per_s"].get("unresolved", False) is unresolved


# a fake checkout's bench/run.py: seed 31 prints a result as its last line,
# seed 33 prints a last line that is not JSON, any other seed fails
FAKE_RUN = """
import json, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
if seed == 31:
    print(json.dumps({"attempted": 1, "failed": 0, "correct": True,
                      "metrics": {m: {"value": 1.0} for m in ("runs_per_s", "run_ms_p50")}}))
elif seed == 33:
    print("no result")
else:
    print("boom", file=sys.stderr)
    sys.exit(3)
"""


@pytest.mark.parametrize("seed, pairs, failed_side, code, kept", [
    (40, 1, "parent", 3, 0),   # the first run fails: the file holds no pair
    (31, 2, "change", 3, 1),   # pair 2 runs the change first, and it fails
    (33, 1, "parent", 0, 0),   # exit code 0, but no JSON last line
])
def test_a_failed_run_is_named_and_finished_pairs_are_kept(
        tmp_path, capsys, seed, pairs, failed_side, code, kept):
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text(FAKE_RUN)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": "grid_flood"}], "end_to_end": METRICS}))
    out = tmp_path / "out.json"
    assert bench_pairs.main(["--parent", str(tmp_path), "--change", str(tmp_path),
                             "--out", str(out), "--seed", str(seed),
                             "--pairs", str(pairs)]) == 1
    err = capsys.readouterr().err.splitlines()
    failed_seed = seed + pairs - 1
    assert err[kept] == (f"bench_pairs: grid_flood run failed on the {failed_side} side "
                         f"({tmp_path}), seed {failed_seed}: exit code {code}, stderr tail:")
    assert err[kept + 1:] == (["boom"] if code else ["(empty)"])
    assert [p["seed"] for p in json.loads(out.read_text())["pairs"]["grid_flood"]] == \
        list(range(seed, seed + kept))
