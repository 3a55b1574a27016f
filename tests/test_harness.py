"""Scenario loading and validation, expectation evaluation, trace
persistence and re-verification, the CLI surface, and the bundled corpus."""

import json

import pytest

from srpsim import (RouteRecord, ScenarioError, Verdict, bundled_scenarios,
                    check_trace, evaluate_expectations, load_scenario,
                    run_scenario, scenario_from_dict, write_trace)
from srpsim.cli import main as cli_main

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
            "params": {"role": "entry", "peer": "S", "path": ["T", "S"]}}})
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
        with pytest.raises(ScenarioError, match="expectation"):
            scenario_from_dict(_mini(expect={"routes_are_nice": True}))

    def test_missing_attack_param_names_adversary_and_key(self, tmp_path):
        p = [p for p in bundled_scenarios() if p.stem == "shortcut_relay_independent"][0]
        d = json.loads(p.read_text())
        (node, spec), = d["adversaries"].items()
        del spec["params"]["shortcut_to"]
        with pytest.raises(ScenarioError, match=f"adversary {node}.*'shortcut_to'"):
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
                           match=f"adversary {node}: param 'shortcut_to' names 'ghost'"):
            scenario_from_dict(d)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(d))
        assert cli_main(["run", str(bad)]) == 2

    def test_unknown_attack_in_file_rejected(self):
        d = _mini(adversaries={"T": {"class": "independent", "attack": "nope"}})
        with pytest.raises(ScenarioError, match="adversary T: unknown attack"):
            scenario_from_dict(d)

    def test_negative_interval_start_rejected(self):
        p = [p for p in bundled_scenarios() if p.stem == "benign_basic"][0]
        d = json.loads(p.read_text())
        d["links"][0][2][0] = [-5, 120]
        with pytest.raises(ScenarioError, match="before time 0"):
            scenario_from_dict(d)

    def test_tunnel_path_must_start_and_end_correctly(self):
        d = _mini(nodes=["S", "T", "m1", "m2"],
                  adversaries={"m1": {
                      "class": "arbitrary", "attack": "fig1a_tunnel",
                      "params": {"role": "entry", "peer": "m2",
                                 "path": ["m2", "m1"]}}})
        with pytest.raises(ScenarioError, match="start"):
            scenario_from_dict(d)


def _tunnel(path):
    return _mini(nodes=["S", "T", "m1", "m2"], adversaries={"m1": {
        "class": "arbitrary", "attack": "passive",
        "params": {"peer": "m2", "path": path}}})


NAN = float("nan")


@pytest.mark.parametrize("data, match", [
    (_mini(discoveries=[{"src": "S", "dst": "T", "at": NAN}]), "discovery start"),
    (_mini(config={"seed": 1, "end_time": 40.0, "tau": NAN}), "tau must be finite"),
    (_mini(config={"seed": 1, "end_time": float("inf")}), "end_time must be finite"),
    (_tunnel(5), "tunnel path for m1"),
    (_tunnel([]), "tunnel path for m1"),
    (_mini(expect={"victim_link": ["S"]}), "victim_link"),
    (_mini(expect={"victim_link": ["S", "S"]}), "victim_link"),
    (_mini(adversaries={"T": "passive"}), "adversary T: spec must be an object"),
    (_mini(expect={"loop_free": "maybe"}), "'loop_free' must be one of"),
    (_mini(expect={"min_accepted": "a"}), "'min_accepted' must be a count"),
    (_mini(expect={"max_metric_error": "a"}), "'max_metric_error'"),
], ids=["nan-at", "nan-tau", "inf-end-time", "path-int", "path-empty",
        "victim-one-node", "victim-self-edge", "adversary-string",
        "loop-free-maybe", "min-accepted-str", "metric-error-str"])
def test_bad_input_fails_at_load_with_exit_two(tmp_path, data, match):
    with pytest.raises(ScenarioError, match=match):
        scenario_from_dict(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert cli_main(["run", str(bad)]) == 2


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
        ok, messages, _ = check_trace(p, scen)
        assert not ok and any("digest" in m for m in messages)

    def _edit_records(self, tmp_path, edit):
        """Store MINIMAL's run, rewrite its `# accepted` records, and
        re-check; the event lines and digest footer stay intact."""
        scen = scenario_from_dict(MINIMAL)
        p = tmp_path / "run.trace"
        write_trace(p, run_scenario(scen))
        lines = p.read_text().splitlines()
        at = [i for i, ln in enumerate(lines) if ln.startswith("# accepted ")]
        assert at
        lines = edit(lines, at[-1])
        p.write_text("\n".join(lines) + "\n")
        return check_trace(p, scen)

    def test_duplicated_record_fails(self, tmp_path):
        ok, messages, _ = self._edit_records(
            tmp_path, lambda lines, i: lines[:i + 1] + lines[i:])
        assert not ok and any("accept lines" in m for m in messages)
        assert not any("digest" in m for m in messages)

    def test_edited_route_fails(self, tmp_path):
        def edit(lines, i):
            rec = json.loads(lines[i][len("# accepted "):])
            rec["route"] = ["S", "X", "T"]
            lines[i] = "# accepted " + json.dumps(rec)
            return lines
        ok, messages, _ = self._edit_records(tmp_path, edit)
        assert not ok and any("accept lines" in m for m in messages)

    @pytest.mark.parametrize("header, message", [
        ("# srpsim-trace scenario=other seed=1",
         "trace header names scenario 'other', not 'mini'"),
        (None, "trace file carries no srpsim-trace header"),
    ], ids=["other-scenario", "no-header"])
    def test_header_must_name_the_scenario(self, tmp_path, header, message):
        def edit(lines, i):
            assert lines[0] == "# srpsim-trace scenario=mini seed=1"
            return ([header] if header else []) + lines[1:]
        ok, messages, _ = self._edit_records(tmp_path, edit)
        assert not ok and messages == [message]


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

    def test_run_exit_two_on_bad_file(self, tmp_path):
        assert cli_main(["run", str(tmp_path / "missing.json")]) == 2

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

    def test_check_subcommand_roundtrip(self, tmp_path):
        p = self._write_scenario(tmp_path, _mini())
        trace = tmp_path / "t.trace"
        assert cli_main(["run", str(p), "--trace", str(trace)]) == 0
        assert cli_main(["check", str(trace), str(p)]) == 0

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
