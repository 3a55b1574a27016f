"""Scenario loading and validation, expectation evaluation, trace
persistence and re-verification, the CLI surface, and the bundled corpus."""

import copy
import dataclasses
import functools
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import srpsim
from srpsim import (FuzzConfig, LinkSchedule, RouteRecord, ScenarioError,
                    ScheduleMap, Verdict, bundled_scenarios, check_trace,
                    evaluate_expectations, fuzz_campaign, load_scenario,
                    run_scenario, scenario_from_dict, write_trace)
from srpsim import AdversaryClass, GKind, LinkMetricModel, SimConfig
from srpsim import scenario as scenario_module, trace as trace_module
from srpsim.adversary import CATALOG
from srpsim.cli import main as cli_main
from srpsim.harness import MAX_FUZZ_NODES
from srpsim.scenario import EXPECT_KEYS, AdversarySpec
from srpsim.trace import (_CHUNK, _first_difference, read_trace, render_trace,
                          trace_digest_of_lines)
from test_golden_grid import grid

MINIMAL = {
    "name": "mini",
    "nodes": ["S", "T"],
    "config": {"seed": 1, "end_time": 40.0},
    "links": [["S", "T", [[0, 40]]]],
    "keys": [["S", "T"]],
    "discoveries": [{"src": "S", "dst": "T", "at": 1.0}],
}


def _mini(**overrides):
    d = json.loads(json.dumps(MINIMAL))
    d.update(overrides)
    return d


class TestLoadValidation:
    def test_minimal_two_node_scenario(self):
        scen = scenario_from_dict(MINIMAL)
        assert scen.discoveries == (("S", "T", 1.0),)
        res = run_scenario(scen)
        assert len(res.records) == 1

    @pytest.mark.parametrize("config", [None, {}, {"tau": 2}],
                             ids=["no-config", "empty-config", "tau-only"])
    def test_absent_fields_take_their_defaults(self, config):
        d = {"nodes": ["S", "a", "T"],
             "adversaries": {"a": {"attack": "passive"}}}
        if config is not None:
            d["config"] = config
        scen = scenario_from_dict(d, name_hint="defaults")
        tau = 2.0 if config else 1.0
        assert scen.config == SimConfig(tau=tau, tx_time=1.0, end_time=300.0, seed=1,
                                        reply_wait_min=4.0 * tau * 3,
                                        reply_wait_max=16.0 * 4.0 * tau * 3)
        assert [type(getattr(scen.config, f.name)) for f in dataclasses.fields(SimConfig)] \
            == [float, float, float, int, float, float]
        assert (scen.name, scen.links, scen.keys, scen.discoveries, scen.metrics,
                scen.expect) == ("defaults", (), (), (), None, {})
        assert scen.adversaries == {"a": AdversarySpec(AdversaryClass.INDEPENDENT,
                                                       "passive", {})}
        d.update(mode="augmented", metrics={"kind": "add", "epsilon": 0.1},
                 discoveries=[{"src": "S", "dst": "T"}], keys=[["S", "T"]])
        scen = scenario_from_dict(d)
        assert scen.metrics == LinkMetricModel(kind=GKind.ADD, epsilon=0.1,
                                               delta_tilde=0.0, administrative=False,
                                               actual={})
        assert scen.discoveries == (("S", "T", 0.0),)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError):
            load_scenario(tmp_path / "nope.json")

    def test_parse_error_carries_position(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{ nope }")
        with pytest.raises(ScenarioError, match=r"bad\.json:\d+:\d+"):
            load_scenario(p)

    def test_adversary_class_mismatch_names_the_rule(self):
        d = _mini(adversaries={"T": {
            "class": "independent", "attack": "fig1a_tunnel",
            "params": {"role": "entry", "path": ["T", "S"]}}})
        with pytest.raises(ScenarioError, match="arbitrary"):
            scenario_from_dict(d)

    def test_overlapping_intervals_rejected(self):
        d = _mini(links=[["S", "T", [[0, 10], [5, 20]]]])
        with pytest.raises(ScenarioError, match="overlap"):
            scenario_from_dict(d)

    def test_undeclared_nodes_rejected(self):
        with pytest.raises(ScenarioError):
            scenario_from_dict(_mini(links=[["S", "X", [[0, 40]]]]))
        with pytest.raises(ScenarioError):
            scenario_from_dict(_mini(keys=[["S", "X"]]))
        with pytest.raises(ScenarioError):
            scenario_from_dict(_mini(discoveries=[{"src": "S", "dst": "X"}]))

    def test_discovery_without_key_rejected(self):
        with pytest.raises(ScenarioError, match="key"):
            scenario_from_dict(_mini(keys=[]))

    def test_mode_and_metrics_must_agree(self):
        with pytest.raises(ScenarioError):
            scenario_from_dict(_mini(mode="augmented"))
        with pytest.raises(ScenarioError):
            scenario_from_dict(_mini(metrics={"kind": "add", "epsilon": 0.1}))

    def test_node_local_metric_kinds_rejected(self):
        d = _mini(mode="augmented",
                  metrics={"kind": "battery", "epsilon": 0.1})
        with pytest.raises(ScenarioError, match="node-local"):
            scenario_from_dict(d)

    def test_administrative_mode_forbids_noise(self):
        d = _mini(mode="augmented",
                  metrics={"kind": "add", "epsilon": 0.1, "delta_tilde": 0.1,
                           "administrative": True,
                           "actual": [["S", "T", 1.0]]})
        with pytest.raises(ScenarioError):
            scenario_from_dict(d)

    def test_unknown_expectation_rejected(self):
        with pytest.raises(ScenarioError, match="expect: has no key 'routes_are_nice'"):
            scenario_from_dict(_mini(expect={"routes_are_nice": True}))

    def test_missing_attack_param_names_adversary_and_key(self, tmp_path):
        p = [p for p in bundled_scenarios() if p.stem == "shortcut_relay_independent"][0]
        d = json.loads(p.read_text())
        (node, spec), = d["adversaries"].items()
        del spec["params"]["shortcut_to"]
        with pytest.raises(ScenarioError,
                           match=rf"adversaries\.{node}\.params\.shortcut_to: is required"):
            scenario_from_dict(d)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(d))
        assert cli_main(["run", str(bad)]) == 2

    def test_attack_param_naming_a_ghost_node_rejected(self, tmp_path):
        p = [p for p in bundled_scenarios() if p.stem == "shortcut_relay_independent"][0]
        d = json.loads(p.read_text())
        (node, spec), = d["adversaries"].items()
        spec["params"]["shortcut_to"] = "ghost"
        with pytest.raises(ScenarioError,
                           match=rf"adversaries\.{node}\.params\.shortcut_to: names 'ghost'"):
            scenario_from_dict(d)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(d))
        assert cli_main(["run", str(bad)]) == 2

    def test_unknown_attack_in_file_rejected(self):
        d = _mini(adversaries={"T": {"class": "independent", "attack": "nope"}})
        with pytest.raises(ScenarioError, match=r"adversaries\.T\.attack: unknown attack 'nope'"):
            scenario_from_dict(d)

    def test_negative_interval_start_rejected(self):
        p = [p for p in bundled_scenarios() if p.stem == "benign_basic"][0]
        d = json.loads(p.read_text())
        d["links"][0][2][0] = [-5, 120]
        with pytest.raises(ScenarioError, match="before time 0"):
            scenario_from_dict(d)

    def test_tunnel_path_must_start_at_its_owner(self):
        d = _tunnel(["m2", "m1"])
        with pytest.raises(ScenarioError, match="adversary m1: tunnel path must start at m1"):
            scenario_from_dict(d)


def _tunnel(path):
    return _mini(nodes=["S", "T", "m1", "m2"], adversaries={"m1": {
        "class": "arbitrary", "attack": "fig1a_tunnel", "params": {"path": path}}})


NAN = float("nan")


@pytest.mark.parametrize("data, match", [
    (_mini(discoveries=[{"src": "S", "dst": "T", "at": NAN}]),
     r"discoveries\[0\]\.at: expected a finite number >= 0, not nan"),
    (_mini(config={"seed": 1, "end_time": 40.0, "tau": NAN}), "config: tau must be finite"),
    (_mini(config={"seed": 1, "end_time": float("inf")}), "config: end_time must be finite"),
    (_tunnel(5), r"adversaries\.m1\.params\.path: expected a list"),
    (_tunnel([]), r"adversaries\.m1\.params\.path: expected 2 or more items, not \[\]"),
    (_tunnel(["m1", "ghost"]),
     r"adversaries\.m1\.params\.path: names 'ghost', which is not in the roster"),
    (_tunnel(["m1", "m2"]), "adversary m1: tunnel path must end at an "
                            "arbitrary-class adversary, not 'm2'"),
    (_mini(nodes=["S", "T", "m1", "m2"], adversaries={
        "m1": {"class": "arbitrary", "attack": "fig1a_tunnel",
               "params": {"path": ["m1", "m2"]}},
        "m2": {"class": "independent", "attack": "passive"}}),
     "adversary m1: tunnel path must end at an arbitrary-class adversary"),
    (_mini(nodes=["S", "T", "m1", "m2"], adversaries={
        "m1": {"class": "arbitrary", "attack": "fig1a_tunnel",
               "params": {"path": ["m1", "m2"]}},
        "m2": {"class": "arbitrary", "attack": "passive"}}),
     "adversary m1: tunnel peer m2 must hold a tunnel that ends at m1"),
    (_mini(nodes=["S", "T", "m1", "m2"], adversaries={"m1": {
        "class": "independent", "attack": "fig1a_tunnel", "params": {"path": ["m1", "m2"]}}}),
     r"adversaries\.m1\.class: attack 'fig1a_tunnel' requires the arbitrary class"),
    (_mini(expect={"victim_link": ["S"]}), r"expect\.victim_link: expected a list of 2 items"),
    (_mini(expect={"victim_link": ["S", "S"]}),
     r"expect\.victim_link: expected two distinct node ids"),
    (_mini(adversaries={"T": "passive"}), r"adversaries\.T: expected an object, not 'passive'"),
    (_mini(expect={"loop_free": "maybe"}),
     r"expect\.loop_free: expected one of all, not-all, none, not 'maybe'"),
    (_mini(expect={"min_accepted": "a"}), r"expect\.min_accepted: expected an integer, not 'a'"),
    (_mini(expect={"max_metric_error": "a"}),
     r"expect\.max_metric_error: expected a number, not 'a'"),
    (_mini(nodes=["S", "T", "a b"]), r"nodes\[2\]: expected a node id .*, not 'a b'"),
    (_mini(nodes=["S", "T", "a\nb"]),
     r"nodes\[2\]: expected a node id \(a non-empty string of UTF-8 text "
     r"with no whitespace and no ','\)"),
    (_mini(nodes=["S", "T", "a,b"]), r"nodes\[2\]: expected a node id .*, not 'a,b'"),
    (_mini(nodes=["S", "T", ""]), r"nodes\[2\]: expected a node id .*, not ''"),
    (_mini(nodes=["S", "T", 5]), r"nodes\[2\]: expected a node id .*, not 5"),
    (_mini(nodes=["S", "T", "a\ud800"]),
     r"nodes\[2\]: expected a node id .*, not 'a\\ud800'"),
    (_mini(name="x\ny"), r"name: expected one line of UTF-8 text, not 'x\\ny'"),
    (_mini(name="x\ry"), r"name: expected one line of UTF-8 text, not 'x\\ry'"),
    (_mini(name="bad\ud800name"), r"name: expected one line of UTF-8 text, not 'bad\\ud800name'"),
    (_mini(mode="augmented", metrics={"kind": "add", "epsilon": 0.1,
                                      "administrative": "false",
                                      "actual": [["S", "T", 1.0]]}),
     r"metrics\.administrative: expected true or false, not 'false'"),
    (_mini(mode="extended"), "mode: expected one of basic, augmented, not 'extended'"),
    (_mini(mode="augmented", metrics={"kind": "add", "epsilon": NAN}),
     "metrics: epsilon must be finite"),
    (_mini(mode="augmented", metrics={"kind": "add", "epsilon": 0.1,
                                      "delta_tilde": float("inf")}),
     "metrics: delta_tilde must be finite"),
    (_mini(mode="augmented", metrics={"kind": "max", "epsilon": 0.1,
                                      "actual": [["S", "T", 1e303]]}),
     "metrics: actual link metrics must be finite"),
    (_mini(nodes=["S", "T", "m"], adversaries={"m": {
        "class": "arbitrary", "attack": "fuzz",
        "params": {"bounds": {"max_emisions": 2}}}}),
     r"adversaries\.m\.params\.bounds: has no key 'max_emisions'"),
    (_mini(nodes=["S", "T", "m"], adversaries={"m": {
        "class": "arbitrary", "attack": "fuzz", "params": {"seed": "12"}}}),
     r"adversaries\.m\.params\.seed: expected an integer, not '12'"),
    (_mini(config={"seed": 7.9, "end_time": 40.0}),
     r"config\.seed: expected an integer, not 7\.9"),
    (_mini(config={"seed": "8", "end_time": 40.0}),
     r"config\.seed: expected an integer, not '8'"),
    (_mini(config={"seed": True, "end_time": 40.0}),
     r"config\.seed: expected an integer, not True"),
    (_mini(config={"seed": 1, "end_time": True}),
     r"config\.end_time: expected a number, not True"),
    (_mini(config={"seed": 1, "end_time": 40.0, "tau": "1.0"}),
     r"config\.tau: expected a number, not '1\.0'"),
    (_mini(config={"seed": 1, "end_time": 10 ** 400}),
     r"config\.end_time: int too large to convert to float"),
    (_mini(discoveries=[{"src": "S", "dst": "T", "at": 10 ** 400}]),
     r"discoveries\[0\]\.at: int too large to convert to float"),
    (_mini(links=[["S", "T", [[0, 10 ** 400]]]]),
     r"links\[0\]\[2\]\[0\]\[1\]: int too large to convert to float"),
    (_mini(nodes="ST"), "nodes: expected a list, not 'ST'"),
    (_mini(keys=["ST"]), r"keys\[0\]: expected a list of 2 items, not 'ST'"),
    (_mini(name=5), "name: expected one line of UTF-8 text, not 5"),
    (_mini(config=[["seed", 1], ["end_time", 40.0]]),
     r"config: expected an object, not \[\['seed'"),
    (_mini(adversaries=[["T", {"attack": "passive"}]]),
     r"adversaries: expected an object, not \[\['T'"),
    (_mini(nodes=["S", "T", "m"], adversaries={"m": {
        "class": "arbitrary", "attack": "fuzz", "params": [["seed", 3]]}}),
     r"adversaries\.m\.params: expected an object, not \[\['seed'"),
    (_mini(expect=[["min_accepted", 1]]), r"expect: expected an object, not \[\['min_accepted'"),
    (_mini(nodes=["S", "T", "m"], adversaries={"m": {
        "class": "arbitrary", "attack": "fuzz", "params": {"bounds": [["ghosts", ["g"]]]}}}),
     r"adversaries\.m\.params\.bounds: expected an object, not \[\['ghosts'"),
    (_mini(discoverys=[]), "scenario: has no key 'discoverys'"),
    (_mini(config={"seed": 1, "end_tme": 50}), "config: has no key 'end_tme'"),
    (_mini(discoveries=[{"src": "S", "dst": "T", "att": 9}]),
     r"discoveries\[0\]: has no key 'att'"),
    (_mini(mode="augmented", metrics={"kind": "add", "epsilon": 0.1, "delta": 0.1,
                                      "actual": [["S", "T", 1.0]]}),
     "metrics: has no key 'delta'"),
    (_mini(nodes=["S", "T", "m"], adversaries={"m": {
        "class": "arbitrary", "attack": "shortcut_relay", "param": {"shortcut_to": "S"}}}),
     r"adversaries\.m: has no key 'param'"),
    (_mini(links=[["S", "T", [[0, 40]], [[50, 60]]]]),
     r"links\[0\]: expected a list of 3 items"),
    (_mini(mode="augmented", metrics={"kind": "add", "epsilon": 0.1,
                                      "actual": [["S", "T", 1.0, 2.0]]}),
     r"metrics\.actual\[0\]: expected a list of 3 items"),
    (_mini(links=[["S", "T", [[0, 40, 99]]]]),
     r"links\[0\]\[2\]\[0\]: expected a list of 2 items"),
    (_mini(links=[["S", "T", 40]]), r"links\[0\]\[2\]: expected a list, not 40"),
    (_mini(discoveries=[{"dst": "T"}]), r"discoveries\[0\]\.src: is required"),
    (_mini(discoveries=[{"src": "S"}]), r"discoveries\[0\]\.dst: is required"),
    (_mini(discoveries=[{"src": ["S"], "dst": "T"}]),
     r"discoveries\[0\]\.src: expected a node id .*, not \['S'\]"),
    (_mini(keys=[[["S"], "T"]]), r"keys\[0\]\[0\]: expected a node id .*, not \['S'\]"),
    (_mini(links=[[5, "T", [[0, 40]]]]), r"links\[0\]\[0\]: expected a node id .*, not 5"),
    (_mini(mode="augmented", metrics={"kind": "add", "epsilon": 0.1,
                                      "actual": [["S", 5, 1.0]]}),
     r"metrics\.actual\[0\]\[1\]: expected a node id .*, not 5"),
    (_mini(links=[["S", "T", [[0, "40"]]]]),
     r"links\[0\]\[2\]\[0\]\[1\]: expected a number, not '40'"),
    (_mini(discoveries=[{"src": "S", "dst": "T", "at": "1"}]),
     r"discoveries\[0\]\.at: expected a number, not '1'"),
    (_mini(mode="augmented", metrics={"kind": "add", "epsilon": "0.1"}),
     r"metrics\.epsilon: expected a number, not '0\.1'"),
    (_mini(expect={"victim_link": [["S"], "T"]}),
     r"expect\.victim_link\[0\]: expected a node id .*, not \['S'\]"),
    (_mini(nodes=["S", "T", "S"]), "nodes: duplicate node ids in roster"),
    (_mini(adversaries={"ghost": {"class": "independent", "attack": "passive"}}),
     "adversary ghost is not in the roster"),
    (_mini(mode="augmented", metrics={"kind": "add", "epsilon": 0.1,
                                      "actual": [["S", "ghost", 1.0]]}),
     "metric for undeclared edge \\('S', 'ghost'\\)"),
    (_mini(discoveries=[{"src": "S", "dst": "S", "at": 1.0}]),
     r"discoveries\[0\]: source equals destination"),
    (_mini(config={"seed": 1, "end_time": 40.0, "tau": 0}), "config: tau must be > 0"),
    (_mini(config={"seed": 1, "end_time": 0}), "config: end_time must be > 0"),
    (_mini(config={"seed": 1, "end_time": 40.0, "reply_wait_min": 8, "reply_wait_max": 4}),
     "config: need 0 < reply_wait_min <= reply_wait_max"),
    (_mini(config={"seed": 1, "end_time": 40.0, "reply_wait_min": 0}),
     "config: need 0 < reply_wait_min <= reply_wait_max"),
    (_mini(config={"seed": 1, "end_time": 40.0, "tx_time": -1.0}), "config: tx_time must be > 0"),
    (_mini(mode="augmented", metrics={"kind": "add", "epsilon": 0.1, "delta_tilde": -0.1,
                                      "actual": [["S", "T", 1.0]]}),
     "metrics: delta_tilde must be >= 0"),
    (_mini(discoveries=[{"src": "S", "dst": "T", "at": None}]),
     r"discoveries\[0\]\.at: expected a value, not null"),
    (_mini(mode="augmented", metrics={"kind": "mul", "epsilon": 0.1,
                                      "actual": [["S", "T", 0.0]]}),
     "metrics: product metrics must be strictly positive"),
    (_mini(mode="augmented", metrics={"kind": "bogus", "epsilon": 0.1}),
     r"metrics\.kind: expected one of add, max, min, mul, not 'bogus'"),
    (_mini(expect={"victim_link": ["S", "ghost"]}), "victim_link names an undeclared node"),
], ids=["nan-at", "nan-tau", "inf-end-time", "path-int", "path-empty",
        "path-ghost", "path-to-correct-node", "path-to-independent",
        "path-to-peer-without-tunnel-back", "tunnel-class-independent",
        "victim-one-node", "victim-self-edge", "adversary-string",
        "loop-free-maybe", "min-accepted-str", "metric-error-str",
        "node-space", "node-newline", "node-comma", "node-empty", "node-int",
        "node-surrogate",
        "name-newline", "name-return", "name-surrogate", "administrative-string",
        "unknown-mode", "epsilon-nan", "delta-tilde-inf", "actual-overflows",
        "fuzz-bounds-typo", "fuzz-seed-str", "seed-float", "seed-str",
        "seed-bool", "end-time-bool", "tau-str", "end-time-overflows",
        "at-overflows", "interval-overflows",
        "nodes-string", "keys-string", "name-int", "config-pairs",
        "adversaries-pairs", "params-pairs", "expect-pairs", "bounds-pairs",
        "top-level-typo", "config-typo", "discovery-typo", "metrics-typo",
        "adversary-typo", "link-extra-item", "actual-extra-item",
        "interval-extra-item", "intervals-int", "discovery-no-src", "discovery-no-dst",
        "discovery-src-list", "key-node-list", "link-node-int", "actual-node-int",
        "interval-str", "at-str", "epsilon-str", "victim-node-list",
        "duplicate-node", "adversary-off-roster", "metric-undeclared-edge",
        "discovery-to-itself", "tau-zero", "end-time-zero", "reply-wait-max-below-min",
        "reply-wait-min-zero", "tx-time-negative",
        "delta-tilde-negative", "discovery-at-null", "mul-metric-zero", "kind-bogus", "victim-off-roster"])
def test_bad_input_fails_at_load_with_exit_two(tmp_path, data, match):
    with pytest.raises(ScenarioError, match=match):
        scenario_from_dict(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert cli_main(["run", str(bad)]) == 2


@pytest.mark.parametrize("text", [
    json.dumps(MINIMAL).replace('"seed": 1', '"seed": ' + "7" * 5000),
    '{"nodes": ' + "[" * 5000 + "]" * 5000 + "}",
], ids=["int-past-digit-limit", "nested-too-deep"])
def test_unparsable_json_fails_at_load_with_exit_two(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    with pytest.raises(ScenarioError, match=f"{re.escape(str(bad))}: parse error"):
        load_scenario(bad)
    for argv in (["run", str(bad)], ["check", str(tmp_path / "run.trace"), str(bad)]):
        assert cli_main(argv) == 2
        assert f"scenario error: {bad}: parse error" in capsys.readouterr().err


def _bundled(stem):
    return json.loads(next(p for p in bundled_scenarios() if p.stem == stem).read_text())


@pytest.mark.parametrize("stem, param, value", [
    ("shortcut_relay_independent", "shortcut_too", "a"),
    ("fig1a_tunnel", "peer", "M2"),
    ("fig1a_tunnel", "tunnel", True),
    ("fig1b_chain", "insert", ["u"]),
], ids=["typo", "peer", "tunnel", "insert-at-head"])
def test_unread_attack_param_fails_at_load(tmp_path, stem, param, value):
    d = _bundled(stem)
    node, spec = next(iter(d["adversaries"].items()))
    spec["params"][param] = value
    with pytest.raises(ScenarioError,
                       match=rf"adversaries\.{node}\.params: has no key '{param}'"):
        scenario_from_dict(d)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    assert cli_main(["run", str(bad)]) == 2


def test_renamed_node_with_a_line_break_fails_at_load(tmp_path):
    # a line break in an id would split the run's own trace lines
    text = json.dumps(_bundled("benign_basic")).replace('"a"', '"A\\nB"')
    with pytest.raises(ScenarioError, match=r"nodes\[1\]: expected a node id .*, not 'A\\nB'"):
        scenario_from_dict(json.loads(text))
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert cli_main(["run", str(bad)]) == 2


def test_a_node_id_of_a_str_subclass_fails_at_load():
    # an id reaches message fields verbatim, and the encoder takes exact
    # values only: a subclass would load and then fail mid-run
    class N(str):
        pass

    d = _bundled("benign_basic")
    d["nodes"] = [N(n) for n in d["nodes"]]
    with pytest.raises(ScenarioError, match=r"^nodes\[0\]: expected a node id "):
        scenario_from_dict(d)


def _mul_chain(actual, **overrides):
    """S-a-b-c-T in augmented mode with a product metric over `actual`."""
    nodes = ["S", "a", "b", "c", "T"]
    edges = list(zip(nodes, nodes[1:]))
    metrics = {"kind": "mul", "epsilon": 0.1,
               "actual": [[u, v, x] for (u, v), x in zip(edges, actual)]}
    return _mini(mode="augmented", nodes=nodes, config={"end_time": 120.0},
                 links=[[u, v, [[0, 120]]] for u, v in edges],
                 metrics={**metrics, **overrides.pop("metrics", {})}, **overrides)


def _tamper_upstream(index):
    return {"class": "arbitrary", "attack": "tamper_metriclist_rreq_upstream",
            "params": {"index": index, "delta": 1e300}}


_PROBE_REPLY_WAIT = "config: reply_wait_max is too small to advance the clock at end_time"


@pytest.mark.parametrize("data, code, err", [
    (_mul_chain([1e300] * 4), 0, None),
    (_mul_chain([1e200, 1e200, 1e-200, 1.5]), 0, None),
    (_mul_chain([1.5] * 4, adversaries={"b": _tamper_upstream(0), "c": _tamper_upstream(1)}),
     0, None),
    (_mul_chain([1.5] * 4, metrics={"delta_tilde": 800}), 2,
     "metrics: max(actual) * e^delta_tilde must be finite once scaled"),
    (_mini(config={"reply_wait_min": 1e-300, "reply_wait_max": 1e-300, "end_time": 10}),
     2, _PROBE_REPLY_WAIT),
    (_mini(config={"reply_wait_min": 1e-300, "end_time": 10}), 2, _PROBE_REPLY_WAIT),
], ids=["product-overflows", "prefix-product-overflows", "tampered-product-overflows",
        "measurement-overflows", "reply-wait-absorbed", "reply-wait-max-default-absorbed"])
def test_loadable_input_never_crashes_or_hangs(tmp_path, data, code, err):
    # a product no float holds discards at the 4.2.2 prefix check; a
    # measurement or a reply wait that would crash or stall the run is
    # refused at load
    probe, trace = tmp_path / "probe.json", tmp_path / "probe.trace"
    probe.write_text(json.dumps(data))
    src = str(Path(srpsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-m", "srpsim", "run", str(probe),
                          "--trace", str(trace)], env=env,
                         capture_output=True, text=True, timeout=30)
    assert out.returncode == code, out.stderr
    if err is None:
        assert "accepted routes: 0" in out.stdout
        assert "4.2.2:prefix-metric-mismatch" in trace.read_text()
    else:
        assert out.stderr == f"scenario error: {err}\n"
        with pytest.raises(ScenarioError, match=f"^{re.escape(err)}$"):
            scenario_from_dict(data)


@pytest.mark.parametrize("stem, param, value", [
    ("tamper_nodelist_downstream_arbitrary", "insert", 5),
    ("tamper_nodelist_downstream_arbitrary", "insert", [5]),
    ("tamper_metriclist_rrep_arbitrary", "index", "a"),
    ("tamper_metriclist_rrep_arbitrary", "delta", float("inf")),
    ("tamper_metriclist_rrep_arbitrary", "index", -3),
    ("tamper_metriclist_rreq_upstream_arbitrary", "index", -1),
    ("tamper_nodelist_upstream_arbitrary", "fake_list", 3),
    ("tamper_nodelist_upstream_arbitrary", "fake_list", [5, 6]),
    ("loop_inject_rreq_arbitrary", "dup", 5),
    ("biased_metric_arbitrary", "direction", "up"),
    ("tamper_metriclist_rreq_downstream_arbitrary", "extra", 3),
    ("fig1a_tunnel", "role", "exitt"),
    ("fig1b_chain", "role", "middle"),
    ("loop_inject_rreq_arbitrary", "where", "req"),
    ("tamper_nodelist_downstream_arbitrary", "insert", ["x\ny"]),
    ("tamper_nodelist_downstream_arbitrary", "insert", ["x\ud800"]),
    ("fig1a_tunnel", "path", ["M1", "M1"]),
    ("fig1a_tunnel", "path", ["M1", "y", "y", "M2"]),
    ("tamper_rrep_route_arbitrary", "index", 1.7),
    ("tamper_rrep_route_arbitrary", "index", True),
    ("biased_metric_arbitrary", "links", 4.6),
    ("biased_metric_arbitrary", "direction", True),
    ("tamper_metriclist_rrep_arbitrary", "delta", "0.5"),
], ids=["insert-int", "insert-int-list", "index-str", "delta-inf",
        "rrep-index-negative", "rreq-index-negative", "fake-list-int",
        "fake-list-int-list", "dup-int", "direction-up", "extra-int",
        "role-exitt", "role-middle", "where-req", "insert-line-break",
        "insert-surrogate",
        "path-self-hop", "path-inner-self-hop", "route-index-float",
        "route-index-bool", "links-float", "direction-bool", "delta-str"])
def test_attack_param_of_wrong_type_fails_at_load(tmp_path, stem, param, value):
    d = _bundled(stem)
    node, spec = next(iter(d["adversaries"].items()))
    spec["params"][param] = value
    with pytest.raises(ScenarioError,
                       match=rf"adversaries\.{node}\.params\.{param}(\[\d+\])?: "):
        scenario_from_dict(d)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    assert cli_main(["run", str(bad)]) == 2


_ADVERSARIAL = [p.stem for p in bundled_scenarios()
                if json.loads(p.read_text()).get("adversaries")]
# every param some script reads
_READ_PARAMS = ["where", "dup", "insert", "shortcut_to", "fake_list", "jump_to",
                "index", "route", "target", "fake_route", "delta", "extra",
                "direction", "links", "headroom_scaled", "role",
                "fake_link_metric", "seed", "bounds", "path"]
_LEAF = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                  st.text(max_size=4))
_VALUE = st.one_of(_LEAF, st.lists(_LEAF, max_size=4),
                   st.dictionaries(st.text(max_size=4), _LEAF, max_size=3))


@settings(max_examples=200, deadline=None)
@given(stem=st.sampled_from(_ADVERSARIAL), pick=st.integers(0, 2),
       key=st.one_of(st.sampled_from(_READ_PARAMS), st.text(max_size=6)),
       value=_VALUE)
def test_any_attack_param_fails_at_load_or_runs(stem, pick, key, value):
    d = _bundled(stem)
    nodes = sorted(d["adversaries"])
    d["adversaries"][nodes[pick % len(nodes)]].setdefault("params", {})[key] = value
    try:
        scen = scenario_from_dict(d)
    except ScenarioError:
        return
    run_scenario(scen)


_CORPUS = [json.loads(p.read_text()) for p in bundled_scenarios()]
# the params every bundled adversary runs with
_CORPUS_PARAMS = [spec.get("params", {}) for d in _CORPUS
                  for spec in d.get("adversaries", {}).values()]
_BAD_IDS = ["ghost", "", "a b", 5, None]


def _mostly(valid, invalid):
    """`valid` nine times in ten, else `invalid` (what shrinking tends to)."""
    return st.integers(0, 9).flatmap(lambda i: valid if i else invalid)


def _values(valid, invalid):
    return _mostly(st.sampled_from(valid), st.sampled_from(invalid))


_TIME = _values([0, 0.0, 1, 10.5, 20, 40, 60, 120], [-5, NAN, float("inf"), "1"])
_INTERVALS = _mostly(
    st.sampled_from([[[0, 120]], [[0, 40]], [[10, 60], [70, 120]], [[0, 30], [30.5, 90]]]),
    st.one_of(st.lists(st.lists(_TIME, min_size=2, max_size=2), max_size=3), _LEAF))


def _section(name, nodes):
    """A generated value for one top-level section of a scenario whose
    roster is `nodes`: mostly well-formed entries that name roster nodes,
    sometimes malformed entries or ones that name other ids."""
    node = _values(list(nodes), _BAD_IDS)
    pair = st.lists(node, min_size=2, max_size=2)
    if name == "nodes":
        return _mostly(st.permutations(nodes), st.one_of(
            st.lists(node, max_size=6), st.just(list(nodes) + ["extra"]), _LEAF))
    if name == "config":
        return st.fixed_dictionaries({}, optional={
            "tau": _values([1.0, 0.5, 2], [0, -1, NAN, "x", None]),
            "tx_time": _values([1.0, 0.5, 3], [0, NAN]),
            "end_time": _values([40, 120.0, 260], [0, -5, NAN, "x"]),
            "seed": _mostly(st.integers(-5, 10 ** 20),
                            st.sampled_from(["x", None, 1.5, True, NAN])),
            "reply_wait_min": _values([None, 4.0, 8], [0, -1, NAN, "x"]),
            "reply_wait_max": _values([None, 16.0, 64], [2, NAN]),
        })
    if name == "links":
        return st.lists(_mostly(st.tuples(node, node, _INTERVALS).map(list), _LEAF),
                        max_size=8)
    if name == "keys":
        return st.lists(_mostly(st.one_of(pair, st.just(["S", "T"])), _LEAF), max_size=3)
    if name == "discoveries":
        return st.lists(_mostly(st.one_of(
            st.fixed_dictionaries({"src": node, "dst": node}, optional={"at": _TIME}),
            st.just({"src": "S", "dst": "T", "at": 1.0})), _LEAF), max_size=3)
    if name == "metrics":
        actual = st.lists(_mostly(
            st.tuples(node, node,
                      _values([1.0, 0.5, 2], [-1, NAN, "-inf", 1e303, "x"])).map(list),
            _LEAF), max_size=6)
        return _mostly(st.fixed_dictionaries({
            "kind": _values(["add", "max", "min", "mul"], ["battery", "zz", 5]),
            "epsilon": _values([0.1, 0.01], [0, -1, NAN, float("inf"), 1e303, "x"]),
        }, optional={
            "delta_tilde": _values([0.0, 0.05], [0.2, -1, NAN, float("inf")]),
            "administrative": _values([True, False], ["false", 0]),
            "actual": actual,
        }), st.one_of(st.none(), _LEAF))
    if name == "mode":
        return _values(["basic", "augmented"], ["x", 5])
    if name == "adversaries":
        params = st.one_of(
            st.sampled_from(_CORPUS_PARAMS),
            st.dictionaries(st.sampled_from(_READ_PARAMS), st.one_of(
                _VALUE, node, st.lists(node, max_size=4)), max_size=3))
        spec = st.fixed_dictionaries(
            {"attack": _values(sorted(CATALOG), ["nope"])},
            optional={"class": _values(["independent", "arbitrary"], ["x"]),
                      "params": params})
        return st.dictionaries(node.filter(lambda n: isinstance(n, str)),
                               _mostly(spec, _LEAF), max_size=3)
    assert name == "expect"
    return st.dictionaries(
        _values(sorted(EXPECT_KEYS), ["bogus"]),
        st.one_of(_VALUE, st.sampled_from(["all", "not-all", "none", "some"]),
                  pair), max_size=3)


_SECTIONS = ["nodes", "config", "links", "keys", "metrics", "mode",
             "discoveries", "adversaries", "expect"]


@st.composite
def _scenario_dicts(draw):
    """A bundled scenario with up to three of its sections replaced."""
    d = copy.deepcopy(draw(st.sampled_from(_CORPUS)))
    roster = d["nodes"]
    names = draw(st.lists(st.sampled_from(_SECTIONS), unique=True, max_size=3))
    for name in names:
        d[name] = draw(_section(name, roster))
    if "metrics" in names and "mode" not in names:
        d["mode"] = "basic" if d["metrics"] is None else "augmented"
    return d


@settings(max_examples=200, deadline=None)
@given(data=_scenario_dicts())
def test_any_scenario_dict_fails_at_load_or_runs(data):
    try:
        scen = scenario_from_dict(data)  # validates
    except ScenarioError as e:
        # every rule names its field or rule, never through the catch-all
        assert "malformed scenario (" not in str(e)
        return
    schedules = scen.schedule_map
    res = run_scenario(scen)  # builds the same object
    assert res.scenario is scen and scen.schedule_map is schedules


def _verdict(**kw):
    defaults = dict(route=("S", "a", "T"), t1=1.0, t2=5.0, loop_free=True,
                    fresh=True, weakly_fresh=True, never_up_links=(),
                    weak_witness=None)
    defaults.update(kw)
    return Verdict(**defaults)


def _record(route=("S", "a", "T")):
    return RouteRecord(route=route, t1=1.0, t2=5.0, qid=1)


class TestExpectations:
    def test_all_and_not_all(self):
        vs = [_verdict(), _verdict(fresh=False)]
        rs = [_record(), _record()]
        assert evaluate_expectations({"fresh": "all"}, rs, vs)
        assert not evaluate_expectations({"fresh": "not-all"}, rs, vs)
        assert evaluate_expectations({"fresh": "not-all"}, [rs[0]], [vs[0]])

    def test_counts(self):
        rs, vs = [_record()], [_verdict()]
        assert not evaluate_expectations({"min_accepted": 1, "max_accepted": 1}, rs, vs)
        assert evaluate_expectations({"min_accepted": 2}, rs, vs)
        assert evaluate_expectations({"max_accepted": 0}, rs, vs)

    def test_victim_link_none_and_some(self):
        rs = [_record(("S", "u", "v", "T"))]
        vs = [_verdict(route=rs[0].route)]
        assert evaluate_expectations(
            {"victim_link": ["u", "v"], "victim_link_accepted": "none"}, rs, vs)
        assert not evaluate_expectations(
            {"victim_link": ["v", "u"], "victim_link_accepted": "some"}, rs, vs)

    def test_none_fails_when_some_route_holds_the_property(self):
        vs = [_verdict(fresh=False), _verdict()]
        rs = [_record(), _record()]
        assert evaluate_expectations({"fresh": "none"}, rs, vs) == [
            "fresh: expected none to hold, some do"]
        assert not evaluate_expectations({"fresh": "none"}, rs[:1], vs[:1])

    def test_victim_link_some_fails_when_no_accepted_route_crosses_it(self):
        rs = [_record(("S", "u", "v", "T"))]
        vs = [_verdict(route=rs[0].route)]
        assert evaluate_expectations(
            {"victim_link": ["S", "v"], "victim_link_accepted": "some"}, rs, vs) == [
            "no accepted route contains the victim link ['S', 'v']"]

    def test_metric_error_cap(self):
        vs = [_verdict(accurate=True, metric_error=0.0)]
        assert not evaluate_expectations({"max_metric_error": 0.0}, [_record()], vs)
        vs = [_verdict(accurate=True, metric_error=0.1)]
        assert evaluate_expectations({"max_metric_error": 0.0}, [_record()], vs)

    def test_faulty_endpoint_routes_excluded_from_properties(self):
        vs = [_verdict(fresh=False, endpoints_faulty=True)]
        assert not evaluate_expectations({"fresh": "all"}, [_record()], vs)


class TestTracePersistence:
    def test_roundtrip_and_recheck(self, tmp_path):
        scen = scenario_from_dict(MINIMAL)
        res = run_scenario(scen)
        p = tmp_path / "run.trace"
        write_trace(p, res)
        ok, messages, verdicts = check_trace(p, scen)
        assert ok, messages
        assert len(verdicts) == len(res.records)

    def test_rewrite_leaves_exactly_the_new_trace(self, tmp_path):
        # a long, a short, then a long trace at one path: each must leave the
        # file byte for byte what render_trace gives, with no stale tail
        mini = scenario_from_dict(MINIMAL)
        basic = load_scenario(
            next(p for p in bundled_scenarios() if p.stem == "benign_basic"))
        p = tmp_path / "run.trace"
        p.write_bytes(b"")
        p.chmod(0o640)
        inode = p.stat().st_ino
        sizes = []
        for scen in (basic, mini, basic):
            res = run_scenario(scen)
            write_trace(p, res)
            assert p.read_bytes() == render_trace(
                scen.name, res.seed, res.trace.lines, res.records,
                res.digest).encode("utf-8")
            ok, messages, _ = check_trace(p, scen)
            assert ok, messages
            sizes.append(p.stat().st_size)
        assert sizes[0] == sizes[2] > sizes[1]
        assert p.stat().st_ino == inode
        assert p.stat().st_mode & 0o777 == 0o640

    def test_a_trace_is_written_with_one_write_per_slice(self, tmp_path, monkeypatch):
        # the header opens the first slice's piece and the records and the
        # footer close the last, so MINIMAL's trace is one write and the
        # 12 x 12 grid flood's two
        writes = []

        class Counting(io.BufferedWriter):
            def write(self, data):
                writes.append(len(data))
                return super().write(data)

        monkeypatch.setattr(trace_module, "open",
                            lambda fd, mode: Counting(io.FileIO(fd, "w")), raising=False)
        for scen, slices in ((scenario_from_dict(MINIMAL), 1), (grid(12), 2)):
            writes.clear()
            p = tmp_path / "run.trace"
            res = run_scenario(scen)
            write_trace(p, res)
            assert len(writes) == slices and sum(writes) == p.stat().st_size
            assert p.read_bytes() == render_trace(
                scen.name, res.seed, res.trace.lines, res.records,
                res.digest).encode("utf-8")

    def test_roundtrip_of_a_trace_longer_than_a_chunk(self, tmp_path):
        # a 12 x 12 grid flood: its event lines are stored and checked in two
        # chunks
        scen = grid(12)
        res = run_scenario(scen)
        assert _CHUNK < len(res.trace) < 2 * _CHUNK
        p = tmp_path / "grid.trace"
        write_trace(p, res)
        assert p.read_bytes() == render_trace(
            scen.name, res.seed, res.trace.lines, res.records,
            res.digest).encode("utf-8")
        ok, messages, verdicts = check_trace(p, scen)
        assert ok and len(verdicts) == len(res.records) == 1, messages
        # comment out an event line of the second chunk (file line n): the
        # file then differs from what write_trace writes at that line
        lines = p.read_text().split("\n")
        n = 2 + _CHUNK + 100
        assert not lines[n - 1].startswith("#")
        lines[n - 1] = "#" + lines[n - 1]
        p.write_text("\n".join(lines))
        ok, messages, verdicts = check_trace(p, scen)
        assert not ok and verdicts == []
        expected, found = lines[n] + "\n", lines[n - 1] + "\n"
        assert messages == [f"line {n}: expected {expected!r}, found {found!r}"]

    def test_tampered_trace_fails_digest(self, tmp_path):
        scen = scenario_from_dict(MINIMAL)
        res = run_scenario(scen)
        p = tmp_path / "run.trace"
        write_trace(p, res)
        lines = p.read_text().splitlines()
        for i, line in enumerate(lines):
            if not line.startswith("#") and "delivered" in line:
                lines[i] = line.replace("delivered", "dropped", 1)
                break
        p.write_text("\n".join(lines) + "\n")
        ok, messages, verdicts = check_trace(p, scen)
        assert not ok and verdicts == [] and len(messages) == 1
        assert messages[0].startswith(f"line {len(lines)}: expected '# digest ")
        assert messages[0].endswith(f"found '{lines[-1]}\\n'")

    def _edit_records(self, tmp_path, edit, scen=None):
        """Store a run (MINIMAL's by default), rewrite its `# accepted`
        records, and re-check; the event lines and digest footer stay
        intact."""
        scen = scen or scenario_from_dict(MINIMAL)
        p = tmp_path / "run.trace"
        write_trace(p, run_scenario(scen))
        lines = p.read_text().splitlines()
        at = [i for i, ln in enumerate(lines) if ln.startswith("# accepted ")]
        assert at
        lines = edit(lines, at[-1])
        p.write_text("\n".join(lines) + "\n")
        return check_trace(p, scen)

    def test_duplicated_record_fails(self, tmp_path):
        ok, messages, verdicts = self._edit_records(
            tmp_path, lambda lines, i: lines[:i + 1] + lines[i:])
        assert not ok and verdicts == [] and len(messages) == 1
        # the copy stands where the footer belongs: line 16 of MINIMAL's trace
        assert re.fullmatch(r"line 16: expected '# digest [0-9a-f]{16}\\n', "
                            r"found '# accepted .*\\n'", messages[0])

    def test_edited_route_fails(self, tmp_path):
        def edit(lines, i):
            rec = json.loads(lines[i][len("# accepted "):])
            rec["route"] = ["S", "X", "T"]
            lines[i] = "# accepted " + json.dumps(rec)
            return lines
        ok, messages, verdicts = self._edit_records(tmp_path, edit)
        assert not ok and verdicts == [] and len(messages) == 1
        assert messages[0].startswith("line 15: expected '# accepted "
                                      '{"route": ["S", "T"], ')

    @pytest.mark.parametrize("field, value, stem", [
        ("t1", 0.0, None),
        ("qid", 99, None),
        ("reported", [1, 2, 3], None),
        ("reported", [1000000], "benign_augmented"),
        ("reported", None, "benign_augmented"),
    ], ids=["t1", "qid", "basic-reported-list", "augmented-reported-short",
            "augmented-reported-null"])
    def test_edited_record_field_fails(self, tmp_path, field, value, stem):
        # all but the short list checked out with (True, []) when only each
        # record's time and route were matched against the accept lines; a
        # null `reported` in augmented mode left accuracy unjudged
        scen = stem and load_scenario(
            next(p for p in bundled_scenarios() if p.stem == stem))
        found = []

        def edit(lines, i):
            rec = json.loads(lines[i][len("# accepted "):])
            assert rec[field] != value
            lines[i] = "# accepted " + json.dumps({**rec, field: value})
            found.append((i + 1, lines[i]))
            return lines
        ok, messages, verdicts = self._edit_records(tmp_path, edit, scen)
        (number, text), = found
        assert not ok and verdicts == [] and len(messages) == 1
        assert messages[0].startswith(f"line {number}: expected '# accepted ")
        assert messages[0].endswith(f", found {text + chr(10)!r}")

    @pytest.mark.parametrize("header, message", [
        ("# srpsim-trace scenario=other seed=1",
         "line 1: expected '# srpsim-trace scenario=mini seed=1\\n', "
         "found '# srpsim-trace scenario=other seed=1\\n'"),
        (None, "line 1: no integer seed: expected "
               "'# srpsim-trace scenario=mini seed=<integer>', "
               "found '0.0 4 S link - up S-T'"),
    ], ids=["other-scenario", "no-header"])
    def test_header_must_name_the_scenario(self, tmp_path, header, message):
        def edit(lines, i):
            assert lines[0] == "# srpsim-trace scenario=mini seed=1"
            return ([header] if header else []) + lines[1:]
        ok, messages, _ = self._edit_records(tmp_path, edit)
        assert not ok and messages == [message]


class TestOneScheduleMap:
    def test_validate_build_and_check_share_one_map(self, tmp_path, monkeypatch):
        built_maps = []
        init = ScheduleMap.__init__

        def counting_init(self, *args):
            built_maps.append(self)
            init(self, *args)
        monkeypatch.setattr(ScheduleMap, "__init__", counting_init)
        # else an earlier scenario of this shape lends its map
        monkeypatch.setattr(scenario_module, "_SCHEDULE_MAPS", {})
        scen = scenario_from_dict(MINIMAL)  # validates
        assert built_maps == [scen.schedule_map]
        scen.validate()
        res = run_scenario(scen)
        p = tmp_path / "run.trace"
        write_trace(p, res)
        ok, messages, verdicts = check_trace(p, scen)
        assert ok, messages
        assert verdicts and built_maps == [scen.schedule_map]

    def test_new_links_get_a_new_map(self):
        scen = scenario_from_dict(MINIMAL)
        late = dataclasses.replace(
            scen, links=(LinkSchedule(("S", "T"), ((20.0, 40.0),)),))
        assert late.schedule_map is not scen.schedule_map
        assert late.schedule_map.get("S", "T").up_intervals == ((20.0, 40.0),)
        def link_lines(res):
            return [(te.time, te.outcome) for te in res.trace if te.primitive == "link"]
        res = run_scenario(late)
        assert link_lines(res) == [(20.0, "up"), (40.0, "down")]
        assert res.records and all(r.t2 > 20.0 for r in res.records)
        assert link_lines(run_scenario(scen)) == [(0.0, "up"), (40.0, "down")]
        # a scenario's links cannot be assigned in place
        with pytest.raises(dataclasses.FrozenInstanceError):
            scen.links = late.links
        assert link_lines(run_scenario(scen)) == [(0.0, "up"), (40.0, "down")]

    def test_scenarios_of_one_shape_share_one_map(self):
        scen = scenario_from_dict(MINIMAL)
        assert scenario_from_dict(MINIMAL).schedule_map is scen.schedule_map
        renamed = scenario_from_dict(_mini(name="other", config={"seed": 9}))
        assert renamed.schedule_map is scen.schedule_map
        for other in (_mini(nodes=["S", "T", "a"]),
                      _mini(links=[["S", "T", [[0, 41]]]]),
                      _mini(nodes=["S", "T", "a"], links=[["S", "T", [[0, 40]]],
                                                          ["S", "a", [[0, 40]]]])):
            assert scenario_from_dict(other).schedule_map is not scen.schedule_map

    def test_zero_written_three_ways_gets_three_maps(self):
        """0, 0.0 and -0.0 are equal but print apart in link lines."""
        scen = scenario_from_dict(MINIMAL)
        firsts, maps = [], []
        for start in (0, 0.0, -0.0):
            same = dataclasses.replace(
                scen, links=(LinkSchedule(("S", "T"), ((start, 40.0),)),))
            maps.append(same.schedule_map)
            lines = run_scenario(same).trace.lines
            firsts.append(next(ln for ln in lines if " link - up " in ln).split()[0])
        assert firsts == ["0", "0.0", "-0.0"]
        assert len(set(map(id, maps))) == 3


class TestOneKeyTable:
    def test_builds_share_the_rings(self):
        scen = scenario_from_dict(MINIMAL)
        first, second = srpsim.build(scen), srpsim.build(scen, seed=2)
        for node in scen.nodes:
            ring = first.nodes[node].state.keys
            assert ring is second.nodes[node].state.keys is scen.key_rings[node]
        assert scen.key_rings["S"].holds("T")

    def test_new_keys_get_new_rings(self):
        scen = scenario_from_dict(_mini(nodes=["S", "a", "T"]))
        rings = scen.key_rings
        other = dataclasses.replace(scen, keys=(("S", "a"),))
        assert other.key_rings is not rings and scen.key_rings is rings
        assert other.key_rings["S"].holds("a")
        assert not other.key_rings["S"].holds("T")
        assert srpsim.build(other).nodes["S"].state.keys is other.key_rings["S"]
        # a scenario's keys cannot be assigned in place
        with pytest.raises(dataclasses.FrozenInstanceError):
            scen.keys = other.keys
        assert scen.key_rings is rings and scen.key_rings["T"].holds("S")

    def test_scenarios_of_one_shape_share_the_rings(self):
        scen = scenario_from_dict(_mini(nodes=["S", "a", "T"]))
        twin = scenario_from_dict(_mini(nodes=["S", "a", "T"], name="twin",
                                        links=[["S", "a", [[0, 40]]]]))
        assert twin.key_rings is scen.key_rings
        for other in (_mini(nodes=["S", "T", "a"]), _mini(nodes=["S", "a", "T", "b"]),
                      _mini(nodes=["S", "a", "T"], keys=[["S", "T"], ["S", "a"]])):
            assert scenario_from_dict(other).key_rings is not scen.key_rings
        with pytest.raises(TypeError):  # shared, so read-only
            scen.key_rings["S"] = scen.key_rings["T"]


@functools.lru_cache(maxsize=None)
def _stored(stem):
    """A bundled scenario and the text write_trace stores for its run."""
    scen = load_scenario(next(p for p in bundled_scenarios() if p.stem == stem))
    with tempfile.TemporaryDirectory() as out:
        path = Path(out) / "run.trace"
        write_trace(path, run_scenario(scen))
        return scen, read_trace(path)


def _check_text(tmp_path, scen, text):
    p = tmp_path / "run.trace"
    p.write_text(text, encoding="utf-8", newline="")
    return check_trace(p, scen)


def _with_footer_recomputed(text):
    lines = text.split("\n")
    digest = trace_digest_of_lines([ln for ln in lines if ln and ln[0] != "#"])
    return "\n".join(f"# digest {digest:016x}" if ln.startswith("# digest ") else ln
                     for ln in lines)


@st.composite
def _edited_trace(draw):
    """A bundled scenario's stored trace with one edit: a line deleted,
    duplicated or inserted, one character changed, a CR appended to a line,
    or the final line break dropped.  No character of the header seed or of
    an augmented record's `reported` list is changed: no line binds them."""
    stem = draw(st.sampled_from([p.stem for p in bundled_scenarios()]))
    scen, text = _stored(stem)
    lines = text.split("\n")[:-1]
    kind = draw(st.sampled_from(["delete", "duplicate", "insert", "change",
                                 "cr", "no-final-break"]))
    i = draw(st.integers(0, len(lines) - 1))
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "insert":
        lines.insert(i, draw(st.text(st.characters(codec="utf-8", exclude_characters="\n"))))
    elif kind == "change":
        line = lines[i]
        unbound = re.search(r" seed=(.*)$" if i == 0 else r'"reported": (\[.*\])',
                            line)
        skip = range(*unbound.span(1)) if unbound and (i == 0 or scen.metrics) else ()
        j = draw(st.sampled_from([j for j in range(len(line)) if j not in skip]))
        c = draw(st.characters(codec="utf-8").filter(lambda c: c != line[j]))
        lines[i] = line[:j] + c + line[j + 1:]
    elif kind == "cr":
        lines[i] += "\r"
    edited = "\n".join(lines) + ("" if kind == "no-final-break" else "\n")
    return scen, edited


def _whole_text_difference(expected: str, found: str) -> str:
    """The reference for `trace._first_difference`: both texts split into
    lines whole, and line n of each shown with its line break, as written."""
    exp, got = expected.split("\n"), found.split("\n")
    n = next((n for n, (e, f) in enumerate(zip(exp, got)) if e != f),
             min(len(exp), len(got)) - 1)

    def line(parts):
        if n + 1 < len(parts):
            return repr(parts[n] + "\n")
        return repr(parts[n]) if n < len(parts) and parts[n] else "end of file"
    return f"line {n + 1}: expected {line(exp)}, found {line(got)}"


_LINES = st.lists(st.sampled_from(["", "a", "ab", "b a", "#"]), max_size=8)


class TestStoredTraceCheck:
    @given(_LINES, st.lists(st.integers(1, 3), min_size=8, max_size=8),
           st.lists(st.tuples(st.integers(0, 60), st.sampled_from(["", "a", "\n", "\r"])),
                    max_size=3))
    def test_first_difference_matches_the_whole_text_comparison(self, lines, sizes, edits):
        # the lines split into pieces of 1-3 lines, each line ended by a
        # break; each edit puts a string in place of one character, or
        # appends it when past the end
        pieces, i = [], 0
        for size in sizes:
            if i < len(lines):
                pieces.append("".join(ln + "\n" for ln in lines[i:i + size]))
                i += size
        expected = text = "".join(pieces)
        for at, new in edits:
            text = text[:at] + new + text[at + 1:]
        found = _first_difference(iter(pieces), text)
        assert found == (None if text == expected else _whole_text_difference(expected, text))

    @pytest.mark.parametrize("path", bundled_scenarios(), ids=lambda p: p.stem)
    def test_accepts_what_write_trace_writes(self, tmp_path, path):
        scen, text = _stored(path.stem)
        res = run_scenario(scen)
        ok, messages, verdicts = _check_text(tmp_path, scen, text)
        assert ok, messages
        assert verdicts == res.verdicts

    @given(case=_edited_trace())
    @settings(max_examples=300, deadline=None)
    def test_any_edit_is_rejected(self, tmp_path_factory, case):
        scen, edited = case
        tmp = tmp_path_factory.mktemp("edit")
        ok, messages, verdicts = _check_text(tmp, scen, edited)
        assert not ok and verdicts == [] and len(messages) == 1
        # with the footer recomputed the edit may stand, but the check
        # still ends with a verdict, never an exception
        ok, messages, verdicts = _check_text(tmp, scen, _with_footer_recomputed(edited))
        assert ok == (messages == [])

    def _tampered(self, edit):
        scen, text = _stored("benign_basic")
        lines = text.split("\n")
        assert lines[-1] == "" and lines[-2].startswith("# digest ")
        return scen, edit(lines)

    @pytest.mark.parametrize("edit, line", [
        (lambda ls: ls[:3] + [ls[3] + "\r"] + ls[4:], None),
        (lambda ls: ls[:5] + [ls[5].replace(" ", " \r", 1)] + ls[6:], None),
        (lambda ls: ls[:6] + [ls[6] + "\f\x1c\u2028 tail"] + ls[7:], None),
        (lambda ls: ls[:7] + [""] + ls[7:], 8),
        (lambda ls: ls[:7] + ["   "] + ls[7:], None),
        (lambda ls: ls[:7] + ["# note"] + ls[7:], 8),
        (lambda ls: ls[:7] + ["#"] + ls[7:], 8),
        (lambda ls: ls[:7] + ["# srpsim-trace scenario=x seed=1"] + ls[7:], 8),
        (lambda ls: ls[:-1] + ["# digest 00ff", ""], 40),
        (lambda ls: ls[:-1], 39),
    ], ids=["crlf", "lone-cr", "separators", "blank-line", "spaces-line",
            "comment-line", "bare-hash", "second-header", "second-footer",
            "no-final-break"])
    def test_tampered_trace_is_rejected(self, tmp_path, edit, line):
        # line None: an event line changed, so the digest footer is the
        # first line that differs from what write_trace writes
        scen, lines = self._tampered(edit)
        ok, messages, verdicts = _check_text(tmp_path, scen, "\n".join(lines))
        assert not ok and verdicts == [] and len(messages) == 1
        assert messages[0].startswith(f"line {line or len(lines) - 1}: ")

    @pytest.mark.parametrize("edit", [
        lambda ln: re.sub(r" query dst=T qid=1 ", " query dst=U qid=1 ", ln),
        lambda ln: ln.replace(" qid=1 ", " qid=one "),
        lambda ln: ln.replace(" qid=1 ", " qid= "),
        lambda ln: re.sub(r"^[0-9.]+ ", "9999.0 ", ln),
    ], ids=["no-query-for-the-route", "qid-not-integer", "qid-empty",
            "query-after-accept"])
    def test_accept_line_without_its_query_is_rejected(self, tmp_path, edit):
        scen, text = _stored("benign_basic")
        lines = text.split("\n")
        i = next(i for i, ln in enumerate(lines) if " query dst=T qid=1 " in ln)
        lines[i] = edit(lines[i])
        edited = _with_footer_recomputed("\n".join(lines))
        ok, messages, verdicts = _check_text(tmp_path, scen, edited)
        assert not ok and verdicts == [] and len(messages) == 1
        assert messages[0].startswith("accept line '") and "no earlier query" in messages[0]


class TestCli:
    def _write_scenario(self, tmp_path, data):
        p = tmp_path / "scen.json"
        p.write_text(json.dumps(data))
        return p

    def test_run_exit_zero_on_met_expectations(self, tmp_path, capsys):
        d = _mini(expect={"min_accepted": 1, "fresh": "all"})
        assert cli_main(["run", str(self._write_scenario(tmp_path, d))]) == 0
        out = capsys.readouterr().out
        assert "all expectations hold" in out

    def test_run_exit_one_on_violated_expectations(self, tmp_path, capsys):
        d = _mini(expect={"max_accepted": 0})
        assert cli_main(["run", str(self._write_scenario(tmp_path, d))]) == 1
        assert "EXPECTATION VIOLATED" in capsys.readouterr().out

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    def test_run_exit_two_on_bad_file(self, tmp_path, capsys, kind):
        path = tmp_path / "scen.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf8":
            path.write_bytes(json.dumps(_mini()).encode().replace(b'"', b'"\xe9', 1))
        assert cli_main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"scenario error: {path}: ") and err.count("\n") == 1

    def test_fuzz_rejects_negative_runs(self, capsys):
        assert cli_main(["fuzz", "--runs", "-3"]) == 2
        assert capsys.readouterr().err == "fuzz error: runs: expected an integer >= 0, not -3\n"

    def test_fuzz_rejects_max_nodes_below_four(self, capsys):
        # random_scenario always draws S, T and two intermediates
        message = "max_nodes: expected an integer >= 4, not 3"
        with pytest.raises(ValueError, match=re.escape(message)):
            FuzzConfig(max_nodes=3)
        assert fuzz_campaign(FuzzConfig(runs=3, max_nodes=4)).runs == 3
        assert cli_main(["fuzz", "--max-nodes", "3"]) == 2
        assert capsys.readouterr().err == f"fuzz error: {message}\n"

    def test_fuzz_rejects_max_nodes_above_the_bound(self, capsys):
        # random_scenario tests every node pair, so time and memory grow
        # with the square of the roster
        assert MAX_FUZZ_NODES == 500
        FuzzConfig(max_nodes=500)
        assert cli_main(["fuzz", "--max-nodes", "100000"]) == 2
        assert capsys.readouterr().err == \
            "fuzz error: max_nodes: expected at most 500, not 100000\n"
        with pytest.raises(SystemExit):
            cli_main(["fuzz", "--help"])
        assert "(4 to 500; default 8)" in " ".join(capsys.readouterr().out.split())

    def test_internal_error_exits_three_with_one_line(self, tmp_path, capsys,
                                                      monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("engine exploded")
        monkeypatch.setattr("srpsim.cli.run_scenario", broken)
        assert cli_main(["run", str(self._write_scenario(tmp_path, _mini()))]) == 3
        err = capsys.readouterr().err
        assert err == "internal error: RuntimeError: engine exploded\n"

    def test_run_writes_trace_and_verdicts(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SRPSIM_OUT", str(tmp_path / "out"))
        p = self._write_scenario(tmp_path, _mini())
        assert cli_main(["run", str(p), "--trace", "t.trace",
                         "--verdicts", "v.json"]) == 0
        assert (tmp_path / "out" / "t.trace").exists()
        assert json.loads((tmp_path / "out" / "v.json").read_text())

    def test_run_writes_trace_through_a_symlink(self, tmp_path):
        p = self._write_scenario(tmp_path, _mini())
        target = tmp_path / "target.trace"
        target.write_text("x" * 10_000)
        link = tmp_path / "link.trace"
        link.symlink_to(target)
        assert cli_main(["run", str(p), "--trace", str(link)]) == 0
        assert link.is_symlink()
        assert cli_main(["check", str(target), str(p)]) == 0

    def test_run_writes_trace_to_dev_null(self, capsys):
        # /dev/null has no length to cut, so the write must not truncate it
        p = next(p for p in bundled_scenarios() if p.stem == "benign_basic")
        assert cli_main(["run", str(p), "--trace", os.devnull]) == 0
        assert f"trace written to {os.devnull}" in capsys.readouterr().out

    def test_python_dash_m_runs_the_cli(self):
        src = str(Path(srpsim.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        out = subprocess.run([sys.executable, "-m", "srpsim", "list-attacks"],
                             env=env, capture_output=True, text=True,
                             timeout=60)
        assert out.returncode == 0, out.stderr
        assert "fig1a_tunnel" in out.stdout

    def test_run_verdicts_summary(self, tmp_path):
        # the tunnel's one accepted route is loop-free and weakly fresh but
        # not fresh; the basic-mode route is never judged for accuracy
        p = next(p for p in bundled_scenarios() if p.stem == "fig1a_tunnel")
        out = tmp_path / "v.json"
        assert cli_main(["run", str(p), "--verdicts", str(out)]) == 0
        written = json.loads(out.read_text())
        assert written["summary"] == {
            "adversary_classes": ["arbitrary"], "routes": 1, "considered": 1,
            "loop_free": 1, "fresh": 0, "weakly_fresh": 1,
            "accurate": 0, "accuracy_evaluated": 0,
        }
        assert [v["route"] for v in written["verdicts"]] == [["S", "x", "M1", "M2", "z", "T"]]

    def test_check_subcommand_roundtrip(self, tmp_path):
        p = self._write_scenario(tmp_path, _mini())
        trace = tmp_path / "t.trace"
        assert cli_main(["run", str(p), "--trace", str(trace)]) == 0
        assert cli_main(["check", str(trace), str(p)]) == 0

    @pytest.mark.parametrize("prefix, edit", [
        ("# accepted ", lambda ln: ln.replace("{", "{x", 1)),
        ("# digest ", lambda ln: "# digest zz"),
        ("# accepted ", lambda ln: "# accepted " + json.dumps(
            {k: v for k, v in json.loads(ln[len("# accepted "):]).items()
             if k != "qid"})),
        ("# accepted ", lambda ln: "# accepted " + json.dumps(
            {**json.loads(ln[len("# accepted "):]), "t1": 1e9})),
    ], ids=["record-not-json", "digest-not-hex", "record-without-qid",
            "record-t1-after-t2"])
    def test_check_fails_on_a_malformed_trace(self, tmp_path, capsys, prefix, edit):
        p = self._write_scenario(tmp_path, _mini())
        trace = tmp_path / "t.trace"
        assert cli_main(["run", str(p), "--trace", str(trace)]) == 0
        lines = trace.read_text().splitlines()
        i = max(i for i, ln in enumerate(lines) if ln.startswith(prefix))
        written = lines[i]
        lines[i] = edit(lines[i])
        trace.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert cli_main(["check", str(trace), str(p)]) == 1
        assert (f"CHECK FAILED: line {i + 1}: expected {written + chr(10)!r}, "
                f"found {lines[i] + chr(10)!r}\n") in capsys.readouterr().out

    def test_check_judges_a_product_beyond_float_range(self, tmp_path, capsys):
        # every reported metric at 1e300: the route product overflows a float
        p = next(p for p in bundled_scenarios() if p.stem == "benign_multiplicative")
        trace = tmp_path / "t.trace"
        assert cli_main(["run", str(p), "--trace", str(trace)]) == 0
        lines = trace.read_text().splitlines()
        for i, line in enumerate(lines):
            if line.startswith("# accepted "):
                record = json.loads(line[len("# accepted "):])
                record["reported"] = [10 ** 306] * len(record["reported"])
                lines[i] = "# accepted " + json.dumps(record)
        trace.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert cli_main(["check", str(trace), str(p)]) == 1
        assert "CHECK FAILED: accurate: expected all, 1 of 1 routes violate it" \
            in capsys.readouterr().out

    def test_check_judges_a_route_with_a_self_edge(self, tmp_path, capsys):
        # the accept line and its record both repeat a, the footer is
        # recomputed: the file is consistent, so the route gets verdicts
        scen, text = _stored("benign_basic")
        edited = _with_footer_recomputed(
            text.replace("route=S,a,b,T", "route=S,a,a,T")
                .replace('["S", "a", "b", "T"]', '["S", "a", "a", "T"]'))
        assert edited.count("S,a,a,T") == 1 and edited.count('"a", "a"') == 1
        trace = tmp_path / "t.trace"
        trace.write_text(edited, encoding="utf-8", newline="")
        p = next(p for p in bundled_scenarios() if p.stem == "benign_basic")
        capsys.readouterr()
        assert cli_main(["check", str(trace), str(p)]) == 1
        out = capsys.readouterr().out
        for prop in ("loop_free", "fresh"):
            assert f"CHECK FAILED: {prop}: expected all, 1 of 1 routes violate it" in out

    @pytest.mark.parametrize("kind, code, message", [
        ("not-utf8", 1, "CHECK FAILED: {trace}: trace file is not UTF-8 text"),
        ("directory", 2, "cannot read trace file {trace}: "),
        ("seed-not-integer", 1, "CHECK FAILED: line 1: no integer seed: expected "
                                "'# srpsim-trace scenario=mini seed=<integer>', "
                                "found '# srpsim-trace scenario=mini seed=banana'"),
        ("seed-missing", 1, "CHECK FAILED: line 1: no integer seed: expected "
                            "'# srpsim-trace scenario=mini seed=<integer>', "
                            "found '# srpsim-trace scenario=mini'"),
    ], ids=["not-utf8", "directory", "seed-not-integer", "seed-missing"])
    def test_check_rejects_an_unreadable_trace(self, tmp_path, capsys, kind, code,
                                               message):
        p = self._write_scenario(tmp_path, _mini())
        trace = tmp_path / "t.trace"
        assert cli_main(["run", str(p), "--trace", str(trace)]) == 0
        text = trace.read_bytes()
        if kind == "not-utf8":
            trace.write_bytes(text.replace(b"\n", b"\n\xff", 1))
        elif kind == "directory":
            trace.unlink()
            trace.mkdir()
        elif kind == "seed-not-integer":
            trace.write_bytes(re.sub(rb" seed=\d+\n", b" seed=banana\n", text, count=1))
        else:
            trace.write_bytes(re.sub(rb" seed=\d+\n", b"\n", text, count=1))
        capsys.readouterr()
        assert cli_main(["check", str(trace), str(p)]) == code
        captured = capsys.readouterr()
        assert message.format(trace=trace) in captured.out + captured.err

    def test_check_judges_no_record_after_a_mismatch(self, tmp_path, capsys):
        p = next(x for x in bundled_scenarios() if x.stem == "benign_basic")
        trace = tmp_path / "t.trace"
        assert cli_main(["run", str(p), "--trace", str(trace)]) == 0
        lines = trace.read_text().splitlines()
        at = [i for i, ln in enumerate(lines) if ln.startswith("# accepted ")]
        assert len(at) == 1
        lines.insert(at[0], lines[at[0]])
        trace.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert cli_main(["check", str(trace), str(p)]) == 1
        out = capsys.readouterr().out
        assert out.startswith("re-verified 0 accepted routes")
        # the original record stands where the footer belongs
        assert (f"CHECK FAILED: line {at[0] + 2}: expected {lines[-1] + chr(10)!r}, "
                f"found {lines[at[0]] + chr(10)!r}") in out
        ok, messages, verdicts = check_trace(trace, load_scenario(p))
        assert not ok and verdicts == [] and len(messages) == 1

    @pytest.mark.parametrize("argv", [
        ["run", "{scenario}", "--trace", "{out}"],
        ["run", "{scenario}", "--verdicts", "{out}"],
        ["fuzz", "--runs", "2", "--report", "{out}"],
    ], ids=["trace", "verdicts", "report"])
    def test_unwritable_output_exits_two(self, tmp_path, capsys, argv):
        scenario = self._write_scenario(tmp_path, _mini())
        out = tmp_path / "a-directory"
        out.mkdir()
        argv = [a.format(scenario=scenario, out=out) for a in argv]
        capsys.readouterr()
        assert cli_main(argv) == 2
        assert capsys.readouterr().err == f"cannot write {out}: Is a directory\n"

    def test_fuzz_subcommand_small(self, tmp_path):
        report = tmp_path / "r.json"
        assert cli_main(["fuzz", "--runs", "20", "--seed", "5",
                         "--report", str(report)]) == 0
        data = json.loads(report.read_text())
        assert data["runs"] == 20 and data["loop_violations"] == []

    def test_list_attacks_names_catalog(self, capsys):
        assert cli_main(["list-attacks"]) == 0
        out = capsys.readouterr().out
        assert "fig1a_tunnel" in out and "arbitrary-only" in out

    def test_seed_override_changes_digest(self, tmp_path, capsys):
        p = self._write_scenario(tmp_path, _mini())
        cli_main(["run", str(p), "--seed", "1"])
        d1 = capsys.readouterr().out
        cli_main(["run", str(p), "--seed", "2"])
        d2 = capsys.readouterr().out
        assert d1.split("digest")[1] != d2.split("digest")[1]


def test_bundled_corpus_is_self_checking():
    paths = bundled_scenarios()
    assert len(paths) >= 30
    for p in paths:
        res = run_scenario(load_scenario(p))
        assert res.expect_failures == [], f"{p.stem}: {res.expect_failures}"


def test_runs_leave_the_scenario_metric_definition_as_it_was():
    # an adversary's self-bias is per-run state; a second run of the same
    # Scenario object must not see the first run's biases
    scen = load_scenario(next(p for p in bundled_scenarios()
                              if p.stem == "biased_metric_independent"))
    before = copy.deepcopy(vars(scen.metrics))
    first, second = run_scenario(scen), run_scenario(scen)
    assert first.digest == second.digest and first.records
    assert vars(scen.metrics) == before


def test_bundled_corpus_covers_every_named_attack_in_compatible_classes():
    from test_adversary import NAMED_ATTACKS
    seen = {}
    for p in bundled_scenarios():
        scen = load_scenario(p)
        for spec in scen.adversaries.values():
            seen.setdefault(spec.attack, set()).add(spec.klass.value)
    for name in NAMED_ATTACKS:
        assert name in seen, f"no scenario exercises {name}"
        from srpsim import CATALOG
        if CATALOG[name].arbitrary_only:
            assert "arbitrary" in seen[name]
        else:
            assert {"independent", "arbitrary"} <= seen[name], name
