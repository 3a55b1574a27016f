"""Adversary classes and scripts: catalog integrity, the independent-class
compliance gate, taint soundness of emissions, key unforgeability, tunnel
preconditions, and fuzz-script reproducibility."""

import random

import pytest

from srpsim import (AdversaryClass, AttackClassError, Broadcast, CATALOG,
                    Engine, LinkSchedule, Rreq, ScheduleMap, SimConfig,
                    FuzzScript, TunnelChannel, TunnelSend, Unicast, attack,
                    load_scenario, run_scenario, scenario_from_dict)
from srpsim.adversary import AdversaryNode, step_adversary
from srpsim.harness import FuzzConfig, bundled_scenarios, fuzz_campaign, random_scenario

from conftest import make_state
from step_cases import _signed_rreq, _table

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
    attack(name, {}, AdversaryClass.ARBITRARY)  # fine


def _adv_node(klass, script, table=None):
    table = table or _table()
    state = make_state("m", table)
    cfg = SimConfig(tau=1.0, tx_time=1.0, end_time=100.0, seed=1,
                    reply_wait_min=8.0, reply_wait_max=64.0)
    node = AdversaryNode("m", klass, script, state, cfg,
                         rng=random.Random(0), roster=("S", "a", "m", "T"))
    return node


class TestComplianceGate:
    def test_independent_forced_drop_on_noncompliant(self):
        node = _adv_node(AdversaryClass.INDEPENDENT, attack("loop_inject"))
        table = _table()
        rreq = _signed_rreq(table, ("a", "b"))  # transmitter mismatch below
        verdict, actions = step_adversary(
            node.klass, node.script, rreq, node.state, "c", 1.0, node.ctx)
        assert verdict is not None and verdict.step == "2.2.2"
        assert actions == []

    def test_arbitrary_still_acts_on_noncompliant(self):
        node = _adv_node(AdversaryClass.ARBITRARY, attack("loop_inject"))
        table = _table()
        rreq = _signed_rreq(table, ("a", "b"))
        verdict, actions = step_adversary(
            node.klass, node.script, rreq, node.state, "c", 1.0, node.ctx)
        assert verdict is not None
        assert actions  # the script ran anyway

    def test_independent_acts_on_compliant(self):
        node = _adv_node(AdversaryClass.INDEPENDENT, attack("loop_inject"))
        table = _table()
        rreq = _signed_rreq(table, ("a",))
        verdict, actions = step_adversary(
            node.klass, node.script, rreq, node.state, "a", 1.0, node.ctx)
        assert verdict is None and actions


class TestExecutor:
    """The adversary-only rules AdversaryNode applies before handing an
    effect to the shared executor."""

    def _run(self, klass, actions, max_emissions=64):
        node = _adv_node(klass, attack("passive"))
        node.max_emissions = max_emissions
        links = [LinkSchedule(edge=("a", "m"), up_intervals=((0.0, 50.0),))]
        cfg = SimConfig(tau=1.0, tx_time=1.0, end_time=50.0, seed=1,
                        reply_wait_min=8.0, reply_wait_max=64.0)
        eng = Engine(cfg, ScheduleMap(("S", "a", "m", "T"), links), random.Random(1))
        node._execute(eng, actions, "test")
        return node, eng

    def test_budget_exhaustion_drops_the_rest(self):
        msgs = [Rreq("S", "T", q, 0, ("a",)) for q in (1, 2, 3, 4)]
        node, eng = self._run(AdversaryClass.ARBITRARY,
                              [Broadcast(m) for m in msgs], max_emissions=2)
        assert [te.primitive for te in eng.trace if te.node == "m"].count("bcast_l") == 2
        assert [te.outcome for te in eng.trace].count("adv-budget") == 1
        assert node.emitted == 2
        assert [e[1] for e in eng.adversary_emissions] == msgs[:2]

    def test_self_addressed_unicast_skipped_but_spends_an_emission(self):
        msg = Rreq("S", "T", 1, 0, ("a",))
        node, eng = self._run(AdversaryClass.ARBITRARY,
                              [Unicast("m", msg), Unicast("a", msg)])
        assert node.emitted == 2
        assert [(te.primitive, te.detail) for te in eng.trace] == [("send_l", "a")]
        assert eng.adversary_emissions == [("m", msg, "test")]

    def test_tunnel_from_independent_node_raises(self):
        with pytest.raises(AttackClassError):
            self._run(AdversaryClass.INDEPENDENT, [TunnelSend(Rreq("S", "T", 1, 0, ()))])


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


def _emission_taint_audit(result_engine):
    """No adversary emission may be triggered by a delivery the compliance
    checker flagged at that adversary (independent class soundness)."""
    bad = {f"deliver:{i}" for i in result_engine.noncompliant_deliveries}
    bad |= {f"overhear:{i}" for i in result_engine.noncompliant_deliveries}
    return [e for e in result_engine.adversary_emissions if e[2] in bad]


def test_independent_emissions_never_downstream_of_noncompliant_input():
    from srpsim.scenario import build
    rng = random.Random(99)
    for i in range(50):
        scenario = random_scenario(rng, AdversaryClass.INDEPENDENT, "basic", 8, 5000 + i)
        built = build(scenario)
        built.engine.run()
        assert _emission_taint_audit(built.engine) == []


def test_accepted_authenticators_were_generated_by_an_end_node():
    from srpsim.scenario import build
    scen = load_scenario([p for p in bundled_scenarios()
                          if p.stem == "forge_rrep_independent"][0])
    built = build(scen)
    built.engine.run()
    accepted = [rec for _, rec in built.engine.accepted]
    assert accepted
    t_digests = {d for holder, pair, d in built.key_table.calls if holder == "T"}
    for rec in accepted:
        route = tuple(reversed(rec.route[1:-1]))
        expected = built.key_table.ring("T").mac(
            "S", ("S", "T", rec.qid, route))
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
        eng.add_tunnel(TunnelChannel(owner="m1", peer="m2", path=("m1", "y", "m2")))
        return eng

    def test_delivery_requires_every_hop_up_in_sequence(self):
        eng = self._engine_with_tunnel([(0.0, 50.0)])
        assert eng.tunnel_send("m1", Rreq("S", "T", 1, 0, ())) is True

    def test_dead_hop_drops_the_payload(self):
        eng = self._engine_with_tunnel([(30.0, 50.0)])
        assert eng.tunnel_send("m1", Rreq("S", "T", 1, 0, ())) is False
        assert any(te.primitive == "tunnel" and te.outcome == "dropped"
                   for te in eng.trace)


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
        from srpsim.srp import TunnelSend
        script = FuzzScript(7, AdversaryClass.INDEPENDENT)
        node = _adv_node(AdversaryClass.INDEPENDENT, script)
        table = _table()
        for i in range(200):
            rreq = _signed_rreq(table, ("a",), qid=1)
            node.state.seen.discard(("S", 1))
            _, actions = step_adversary(node.klass, script, rreq, node.state,
                                        "a", 1.0, node.ctx)
            assert not any(isinstance(a, TunnelSend) for a in actions)

    def test_emission_budget_is_enforced(self):
        report = fuzz_campaign(FuzzConfig(
            runs=5, klass=AdversaryClass.ARBITRARY, mode="basic", seed=3,
            bounds={"max_emissions": 2}))
        assert report.runs == 5  # completes without runaway traffic
