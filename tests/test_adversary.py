"""Adversary classes and scripts: catalog integrity, the independent-class
compliance gate, taint soundness of emissions, key unforgeability, tunnel
preconditions, and fuzz-script reproducibility."""

import ast
import copy
import random
from dataclasses import replace
from pathlib import Path

import pytest

import srpsim
from srpsim import (AdversaryClass, AttackClassError, Broadcast, CATALOG,
                    Engine, LinkSchedule, Rrep, Rreq, ScheduleMap, SimConfig,
                    FuzzScript, TunnelSend, Unicast, attack,
                    load_scenario, run_scenario, scenario_from_dict, srp)
from srpsim import scenario as scenario_module
from srpsim.adversary import AdversaryNode, FieldError, Fig1aTunnel, step_adversary
from srpsim.harness import bundled_scenarios, random_scenario
from srpsim.srp_qos import to_scaled

from conftest import make_state
from step_cases import _signed_rreq, _table

HERE = Path(__file__).resolve().parent

NAMED_ATTACKS = {
    "loop_inject", "tamper_nodelist_downstream", "shortcut_relay",
    "tamper_nodelist_upstream", "tamper_rrep_route", "impersonate_t",
    "forge_rrep", "replay_stale_rrep", "tamper_metriclist_rrep",
    "tamper_metriclist_rreq_upstream", "tamper_metriclist_rreq_downstream",
    "biased_metric", "fig1a_tunnel", "fig1b_chain",
}


def test_catalog_covers_every_named_attack():
    assert NAMED_ATTACKS <= set(CATALOG)


def test_unknown_attack_rejected():
    with pytest.raises(Exception):
        attack("no_such_attack")


@pytest.mark.parametrize("name", ["fig1a_tunnel", "fig1b_chain"])
def test_collusion_attacks_are_arbitrary_only(name):
    assert CATALOG[name].arbitrary_only
    with pytest.raises(AttackClassError):
        attack(name, {}, AdversaryClass.INDEPENDENT)
    params = {"path": ["m1", "m2"]} if name == "fig1a_tunnel" else {}
    attack(name, params, AdversaryClass.ARBITRARY, ("m1", "m2"))  # fine


def test_only_the_adversary_module_reads_attack_params():
    """Outside adversary.py no srpsim module reads a key of a params mapping
    (`...params[...]`, `...params.get(...)` or `...params.pop(...)`), so the
    rules for an attack's inputs stay with its script."""
    stray = []
    for path in sorted(Path(srpsim.__file__).parent.glob("*.py")):
        if path.name == "adversary.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Subscript):
                mapping = node.value
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in ("get", "pop"):
                mapping = node.func.value
            else:
                continue
            if ast.unparse(mapping).endswith("params"):
                stray.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert not stray, stray


def _adv_node(klass, script, table=None):
    table = table or _table()
    state = make_state("m", table)
    cfg = SimConfig(tau=1.0, tx_time=1.0, end_time=100.0, seed=1,
                    reply_wait_min=8.0, reply_wait_max=64.0)
    node = AdversaryNode("m", klass, script, state, cfg, roster=("S", "a", "m", "T"))
    return node


class TestComplianceGate:
    def test_independent_forced_drop_on_noncompliant(self):
        node = _adv_node(AdversaryClass.INDEPENDENT, attack("loop_inject"))
        table = _table()
        rreq = _signed_rreq(table, ("a", "b"))  # transmitter mismatch below
        verdict, actions = step_adversary(node, rreq, "c")
        assert verdict is srp.RELAY_PRECURSOR_MISMATCH
        assert actions == []

    def test_arbitrary_still_acts_on_noncompliant(self):
        node = _adv_node(AdversaryClass.ARBITRARY, attack("loop_inject"))
        table = _table()
        rreq = _signed_rreq(table, ("a", "b"))
        verdict, actions = step_adversary(node, rreq, "c")
        assert verdict is not None
        assert actions  # the script ran anyway

    def test_independent_acts_on_compliant(self):
        node = _adv_node(AdversaryClass.INDEPENDENT, attack("loop_inject"))
        table = _table()
        rreq = _signed_rreq(table, ("a",))
        verdict, actions = step_adversary(node, rreq, "a")
        assert verdict is None and actions


class TestExecutor:
    """The adversary-only rules AdversaryNode applies before it applies an
    effect."""

    def _run(self, klass, actions, max_emissions=64):
        node = _adv_node(klass, attack("passive"))
        node.script.max_emissions = max_emissions
        links = [LinkSchedule(edge=("a", "m"), up_intervals=((0.0, 50.0),))]
        cfg = SimConfig(tau=1.0, tx_time=1.0, end_time=50.0, seed=1,
                        reply_wait_min=8.0, reply_wait_max=64.0)
        eng = Engine(cfg, ScheduleMap(("S", "a", "m", "T"), links), random.Random(1))
        node._execute(eng, actions)
        return node, eng

    def test_budget_exhaustion_drops_the_rest(self):
        msgs = [Rreq("S", "T", q, 0, ("a",)) for q in (1, 2, 3, 4)]
        node, eng = self._run(AdversaryClass.ARBITRARY,
                              [Broadcast(m) for m in msgs], max_emissions=2)
        assert [te.primitive for te in eng.trace if te.node == "m"].count("bcast_l") == 2
        assert [te.outcome for te in eng.trace].count("adv-budget") == 1
        assert node.emitted == 2
        assert eng.adversary_emissions == [("m", m) for m in msgs[:2]]

    def test_self_addressed_unicast_skipped_but_spends_an_emission(self):
        msg = Rreq("S", "T", 1, 0, ("a",))
        node, eng = self._run(AdversaryClass.ARBITRARY,
                              [Unicast("m", msg), Unicast("a", msg)])
        assert node.emitted == 2
        assert [(te.primitive, te.detail) for te in eng.trace] == [("send_l", "a")]
        assert eng.adversary_emissions == [("m", msg)]

    def test_tunnel_from_independent_node_raises(self):
        with pytest.raises(AttackClassError):
            self._run(AdversaryClass.INDEPENDENT, [TunnelSend(Rreq("S", "T", 1, 0, ()))])

    def test_tunnel_without_a_path_raises(self):
        # `passive` sets no tunnel path
        with pytest.raises(RuntimeError, match="m's script has no tunnel path"):
            self._run(AdversaryClass.ARBITRARY, [TunnelSend(Rreq("S", "T", 1, 0, ()))])


class TestMetricIndex:
    """An index past the end of the metric list relays the message as a
    protocol-following node would; an index inside it edits that entry."""

    RREP = Rrep("S", "T", 1, ("a", "m"), 0, (10, 20, 30))
    RREQ = Rreq("S", "T", 1, 0, ("a",), (10, 20))

    def _node(self, name, index):
        return _adv_node(AdversaryClass.ARBITRARY, attack(name, {"index": index, "delta": 1e-6}))

    @pytest.mark.parametrize("index", [3, 50])
    def test_rrep_index_past_the_list_relays_unmodified(self, index):
        node = self._node("tamper_metriclist_rrep", index)
        fx = node.script.on_rrep(node, self.RREP, "T")
        assert fx == [node.protocol_rrep_forward(self.RREP)] and fx[0].msg is self.RREP

    @pytest.mark.parametrize("index, edited", [(0, (10, 20, 31)), (2, (11, 20, 30))])
    def test_rrep_index_counts_from_the_source_end(self, index, edited):
        node = self._node("tamper_metriclist_rrep", index)
        (fwd,) = node.script.on_rrep(node, self.RREP, "T")
        assert fwd.msg.metric_list == edited

    @pytest.mark.parametrize("index", [2, 50])
    def test_rreq_index_past_the_list_relays_unmodified(self, index):
        node = self._node("tamper_metriclist_rreq_upstream", index)
        assert node.script.on_rreq(node, self.RREQ, "a") == \
            [Broadcast(node.appended_rreq(self.RREQ, "a"))]

    def test_rreq_index_inside_the_list_edits_that_entry(self):
        node = self._node("tamper_metriclist_rreq_upstream", 1)
        (out,) = node.script.on_rreq(node, self.RREQ, "a")
        assert out.msg.metric_list == (10, 21)

    @pytest.mark.parametrize("name", ["tamper_metriclist_rrep",
                                      "tamper_metriclist_rreq_upstream"])
    def test_negative_index_rejected(self, name):
        with pytest.raises(FieldError, match=r"params\.index: expected an integer >= 0"):
            attack(name, {"index": -1})


def test_downstream_metric_tamper_drops_replies_in_basic_mode():
    # the script relays requests like a correct node but never forwards a
    # reply, so in basic mode the discovery through it accepts nothing
    scen = scenario_from_dict({
        "name": "blind-spot", "nodes": ["S", "m", "T"],
        "config": {"seed": 1, "end_time": 60.0},
        "links": [["S", "m", [[0, 60]]], ["m", "T", [[0, 60]]]],
        "keys": [["S", "T"]],
        "discoveries": [{"src": "S", "dst": "T", "at": 1.0}],
        "adversaries": {"m": {"class": "independent",
                              "attack": "tamper_metriclist_rreq_downstream"}},
    })
    res = run_scenario(scen)
    assert any(te.node == "m" and te.primitive == "receive_l" and te.detail == "T"
               for te in res.trace)
    assert not any(te.node == "m" and te.primitive == "send_l" for te in res.trace)
    assert res.records == []


def test_independent_emissions_never_downstream_of_noncompliant_input(monkeypatch):
    """A delivery the compliance check flags at an independent adversary
    (it writes an `adv-noncompliant` line) spends no emission: the input
    triggers nothing the node sends."""
    from srpsim.scenario import build
    flagged = []  # emissions spent by each flagged delivery
    on_deliver = AdversaryNode.on_deliver

    def audited(self, engine, msg, transmitter, addressed, now):
        lines, emitted = len(engine.lines), self.emitted
        on_deliver(self, engine, msg, transmitter, addressed, now)
        if any(" adv-noncompliant " in ln for ln in engine.lines[lines:]):
            assert self.klass is AdversaryClass.INDEPENDENT
            flagged.append(self.emitted - emitted)
    monkeypatch.setattr(AdversaryNode, "on_deliver", audited)
    rng = random.Random(99)
    for i in range(50):
        scenario = random_scenario(rng, AdversaryClass.INDEPENDENT, "basic", 8, 5000 + i)
        build(scenario).run()
    assert flagged and set(flagged) == {0}


def test_accepted_authenticators_were_generated_by_an_end_node(mac_calls):
    from srpsim.scenario import build
    scen = load_scenario([p for p in bundled_scenarios()
                          if p.stem == "forge_rrep_independent"][0])
    engine = build(scen)
    engine.run()
    assert engine.accepted
    t_digests = {d for holder, pair, d in mac_calls if holder == "T"}
    for rec in engine.accepted:
        route = tuple(reversed(rec.route[1:-1]))
        expected = _table().ring("T").mac("S", ("S", "T", rec.qid, route))
        assert expected in t_digests


class TestTunnel:
    def _engine_with_tunnel(self, intervals):
        nodes = ("m1", "y", "m2")
        links = [LinkSchedule(edge=("m1", "y"), up_intervals=((0.0, 50.0),)),
                 LinkSchedule(edge=("m2", "y"), up_intervals=tuple(intervals))]
        smap = ScheduleMap(nodes, links)
        cfg = SimConfig(tau=1.0, tx_time=1.0, end_time=50.0, seed=1,
                        reply_wait_min=8.0, reply_wait_max=64.0)
        eng = Engine(cfg, smap, random.Random(1))

        class _Null:
            def on_tunnel(self, *a): ...
        for n in nodes:
            eng.add_node(n, _Null())
        return eng

    def test_delivery_requires_every_hop_up_in_sequence(self):
        eng = self._engine_with_tunnel([(0.0, 50.0)])
        assert eng.tunnel_send(("m1", "y", "m2"), Rreq("S", "T", 1, 0, ())) is True

    @pytest.mark.parametrize("path", [["m1", "m1"], ["m1", "y", "y", "m2"]])
    def test_path_with_a_self_hop_rejected(self, path):
        with pytest.raises(FieldError, match=r"params\.path: hop from '.*' to itself"):
            attack("fig1a_tunnel", {"path": path})

    def test_built_tunnel_is_the_scripts_path(self):
        from srpsim.scenario import build
        scen = load_scenario([p for p in bundled_scenarios() if p.stem == "fig1a_tunnel"][0])
        engine = build(scen)
        assert {node: driver.script.tunnel for node, driver in engine.nodes.items()
                if isinstance(driver, AdversaryNode)} == {"M1": ("M1", "y", "M2"),
                                                          "M2": ("M2", "y", "M1")}
        engine.run()
        assert [(te.node, te.detail) for te in engine.trace
                if te.primitive == "tunnel" and te.outcome == "delivered"] == [
            ("M2", "M1"), ("M1", "M2")]

    def test_dead_hop_drops_the_payload(self):
        eng = self._engine_with_tunnel([(30.0, 50.0)])
        assert eng.tunnel_send(("m1", "y", "m2"), Rreq("S", "T", 1, 0, ())) is False
        assert any(te.primitive == "tunnel" and te.outcome == "dropped"
                   for te in eng.trace)

    def test_exit_reports_a_known_edge_by_its_actual_metric(self, monkeypatch):
        """With no `fake_link_metric`, the exit appends `fake_metric` of the
        advertised edge, which is the edge's actual metric when the scenario
        declares one (2.5 on M1-M2 here), not the default 1.0."""
        sent = []
        on_tunnel = Fig1aTunnel.on_tunnel

        def recording(script, node, msg, frm):
            effects = on_tunnel(script, node, msg, frm)
            if script.role == "exit":
                sent.extend(e.msg for e in effects)
            return effects
        monkeypatch.setattr(Fig1aTunnel, "on_tunnel", recording)
        result = run_scenario(load_scenario(HERE / "fig1a_tunnel_known_edge.json"))
        assert [m.metric_list[-1] for m in sent] == [to_scaled(2.5)] != [to_scaled(1.0)]
        route = result.records[0].route
        assert route == ("S", "x", "M1", "M2", "z", "T")
        assert result.records[0].reported[route.index("M1")] == to_scaled(2.5)


def test_store_holds_the_delivered_messages():
    from srpsim.scenario import build
    scen = load_scenario([p for p in bundled_scenarios()
                          if p.stem == "replay_stale_rrep_arbitrary"][0])
    engine = build(scen)
    engine.run()
    (driver,) = [d for d in engine.nodes.values() if isinstance(d, AdversaryNode)]
    assert driver.store and all(isinstance(m, (Rreq, Rrep)) for m in driver.store)


@pytest.mark.parametrize("stem, draws", [("forge_rrep_arbitrary", True),
                                         ("biased_metric_arbitrary", False)])
def test_adversary_stream_is_seeded_on_its_first_draw(stem, draws):
    from srpsim.scenario import build
    scen = load_scenario([p for p in bundled_scenarios() if p.stem == stem][0])
    engine = build(scen)
    drivers = [d for d in engine.nodes.values() if isinstance(d, AdversaryNode)]
    assert drivers and not any("rng" in vars(d) for d in drivers)
    engine.run()
    assert any("rng" in vars(d) for d in drivers) == draws
    # the forged authenticators in the golden traces pin the drawn values
    d = [d for d in build(scen).nodes.values() if isinstance(d, AdversaryNode)][0]
    assert d.rng.random() == random.Random(f"adv|{scen.config.seed}|{d.node_id}").random()


SCRIPT_CASES = [pytest.param(p, id=p.stem) for p in bundled_scenarios()] + [
    pytest.param((klass, mode, i), id=f"fuzz-{klass.value}-{mode}-{i}")
    for klass in AdversaryClass for mode in ("basic", "augmented") for i in range(4)]


def _script_case(case):
    if isinstance(case, Path):
        return load_scenario(case)
    klass, mode, i = case
    scenario = random_scenario(random.Random(f"scripts|{i}"), klass, mode, 8, 40 + i)
    if i % 2:  # fuzz scripts seeded by the run
        adversaries = {node: replace(spec, params={})
                       for node, spec in scenario.adversaries.items()}
        scenario = replace(scenario, adversaries=adversaries)
    return scenario


@pytest.mark.parametrize("case", SCRIPT_CASES)
def test_one_script_per_adversary_serves_every_run(case, monkeypatch):
    """`validate`, `build` and the runs share one script per adversary, and
    no run changes it: of runs under seeds a, b and a again, both runs under
    a give one digest."""
    scenario = replace(_script_case(case))  # a copy that has built no script
    real = scenario_module.attack
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(scenario_module, "attack", counted)
    scenario.validate()
    built = {node: copy.deepcopy(vars(s)) for node, s in scenario.scripts.items()}
    a = scenario.config.seed
    digests = [run_scenario(scenario, seed).digest for seed in (a, a + 1, a)]
    assert len(calls) == len(scenario.adversaries)
    assert {node: vars(s) for node, s in scenario.scripts.items()} == built
    assert digests[0] == digests[2]


class TestFuzzScripts:
    def test_same_seed_reproduces_behavior(self):
        rng = random.Random(4)
        scenario = random_scenario(rng, AdversaryClass.ARBITRARY, "basic", 8, 1234)
        r1 = run_scenario(scenario)
        rng = random.Random(4)
        scenario = random_scenario(rng, AdversaryClass.ARBITRARY, "basic", 8, 1234)
        r2 = run_scenario(scenario)
        assert r1.digest == r2.digest

    def test_independent_script_has_no_tunnel_in_alphabet(self):
        node = _adv_node(AdversaryClass.INDEPENDENT, attack("fuzz", {"seed": 7}))
        table = _table()
        for i in range(200):
            rreq = _signed_rreq(table, ("a",), qid=1)
            node.state.seen.discard(("S", 1))
            _, actions = step_adversary(node, rreq, "a")
            assert not any(isinstance(a, TunnelSend) for a in actions)

    def test_fuzz_is_a_catalog_entry_seeded_by_the_run_by_default(self):
        assert CATALOG["fuzz"] is FuzzScript
        default = _adv_node(AdversaryClass.ARBITRARY, attack("fuzz", {}))
        seeded = _adv_node(AdversaryClass.ARBITRARY, attack("fuzz", {"seed": 1}))
        assert default.cfg.seed == 1
        assert default.rng.random() == seeded.rng.random()

    @pytest.mark.parametrize("params", [
        {"seed": "x"}, {"bounds": 5}, {"bounds": {"ghosts": []}},
        {"bounds": {"ghosts": [1]}}, {"bounds": {"spontaneous": -1}},
        {"bounds": {"max_emissions": "many"}}, {"bounds": {"spontaneous": 1001}},
        {"bounds": {"spontanous": 5, "max_emisions": 2}},
    ])
    def test_bad_fuzz_params_rejected(self, params):
        with pytest.raises(FieldError, match=r"params\.(seed|bounds)\b"):
            attack("fuzz", params)

    def test_bounds_set_the_emission_budget(self):
        assert attack("fuzz", {"bounds": {"max_emissions": 2}}).max_emissions == 2


class TestRareAttackPaths:
    """Attack-script branches no bundled scenario or campaign run takes;
    each test names the branch it reaches."""

    def test_biased_metric_relays_as_a_correct_node_in_basic_mode(self):
        # BiasedMetric.on_rreq: `qos is None`, the base class's relay
        node = _adv_node(AdversaryClass.INDEPENDENT, attack("biased_metric"))
        rreq = _signed_rreq(_table(), ("a",))
        assert node.script.on_rreq(node, rreq, "a") == \
            [Broadcast(replace(rreq, node_list=("a", "m")))]
        assert node.qos is None

    def test_fuzz_on_time_with_one_other_node_does_nothing(self):
        # FuzzScript.on_time: `len(roster) < 2`, the empty return
        node = _adv_node(AdversaryClass.ARBITRARY, attack("fuzz", {"seed": 3}))
        node.roster = ("a", "m")
        assert node.script.on_time(node) == []

    @pytest.mark.parametrize("ml", [None, (5, 7)], ids=["no-list", "list"])
    def test_fuzz_mangle_metrics_in_basic_mode_keeps_the_list(self, ml):
        # FuzzScript._mangle_metrics: `ml is None or node.qos is None`, the
        # list returned as given, with no draw from the node's stream
        node = _adv_node(AdversaryClass.ARBITRARY, attack("fuzz", {"seed": 3}))
        drawn = node.rng.getstate()
        assert node.script._mangle_metrics(node, ml) == ml
        assert node.rng.getstate() == drawn

    @pytest.mark.parametrize("role, hook, msg", [
        ("exit", "on_rreq", Rreq("S", "T", 1, 0, ("a",))),
        ("entry", "on_rrep", Rrep("S", "T", 1, ("m",), 0)),
        ("exit", "on_tunnel", Rrep("S", "T", 1, ("m",), 0)),
        ("entry", "on_tunnel", Rreq("S", "T", 1, 0, ("a",))),
    ], ids=["exit-rreq", "entry-rrep", "exit-tunnelled-rrep", "entry-tunnelled-rreq"])
    def test_fig1a_tunnel_ignores_what_the_other_role_handles(self, role, hook, msg):
        # Fig1aTunnel's no-op returns: the exit's on_rreq, the entry's
        # on_rrep, and on_tunnel's final return for either role
        script = attack("fig1a_tunnel", {"path": ["m", "x"], "role": role},
                        AdversaryClass.ARBITRARY, ("m", "x"))
        node = _adv_node(AdversaryClass.ARBITRARY, script)
        assert getattr(script, hook)(node, msg, "a") == []

    def test_forged_rrep_in_augmented_mode_carries_one_metric_per_link(self):
        # AdversaryNode.forged_rrep: `rreq.metric_list is not None`, with
        # len(route) + 1 fake metrics
        node = _adv_node(AdversaryClass.ARBITRARY, attack("passive"))
        rreq = _signed_rreq(_table(), ("a",), metric_list=(to_scaled(2.0),))
        rrep = node.forged_rrep(rreq, ("m", "a"))
        assert (rrep.src, rrep.dst, rrep.qid, rrep.route) == ("S", "T", 1, ("m", "a"))
        assert rrep.metric_list == (to_scaled(1.0),) * 3
