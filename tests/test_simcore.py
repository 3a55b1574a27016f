"""Link-layer engine: link state lookups, delivery windows, failure reports,
overhearing, event ordering, and replay determinism."""

import gc
import random
import weakref

import pytest
from hypothesis import given, strategies as st

from srpsim import (AdversaryNode, Engine, InvalidEdgeError, LinkSchedule,
                    OrderingError, Rreq, ScheduleError, ScheduleMap, SimConfig,
                    SrpNode, build, bundled_scenarios, load_scenario,
                    run_scenario, scenario_from_dict)
from srpsim.simcore import message_digest


def schedules(*entries, nodes=None):
    links = [LinkSchedule(edge=tuple(sorted((u, v))), up_intervals=tuple(iv))
             for u, v, iv in entries]
    roster = nodes or sorted({n for u, v, _ in entries for n in (u, v)})
    return ScheduleMap(roster, links)


class TestLinkState:
    def test_inside_interval_is_up(self):
        s = schedules(("u", "v", [(0, 5)]))
        assert s.covers("u", "v", 3, 4) and s.covers("v", "u", 0, 5)

    def test_outside_interval_is_down(self):
        s = schedules(("u", "v", [(0, 5)]))
        assert not s.covers("u", "v", 7, 8)
        assert not s.covers("u", "v", 4.5, 5.5)  # runs past the interval

    def test_absent_edge_is_down(self):
        s = schedules(("u", "v", [(0, 5)]), nodes=["u", "v", "w"])
        assert not s.covers("u", "w", 0, 1)

    def test_self_edge_rejected(self):
        s = schedules(("u", "v", [(0, 5)]))
        with pytest.raises(InvalidEdgeError):
            s.covers("u", "u", 1, 2)


class TestNeighbourIndex:
    def test_sorted_by_id_without_self(self):
        s = schedules(("x", "c", [(0, 5)]), ("b", "x", [(0, 5)]),
                      ("a", "x", [(0, 5)]), ("a", "b", [(0, 5)]))
        assert [v for v, _ in s.neighbours("x")] == ["a", "b", "c"]
        for u in s.nodes:
            ids = [v for v, _ in s.neighbours(u)]
            assert u not in ids and ids == sorted(ids)
            for v, link in s.neighbours(u):
                assert link is s.get(u, v)

    def test_isolated_node_has_none(self):
        s = schedules(("u", "v", [(0, 5)]), nodes=["u", "v", "w"])
        assert s.neighbours("w") == ()


class TestScheduleValidation:
    def test_overlapping_intervals_rejected(self):
        s = schedules(("u", "v", [(0, 5), (4, 9)]))
        with pytest.raises(ScheduleError):
            s.validate(1.0)

    def test_interval_shorter_than_tx_time_rejected(self):
        s = schedules(("u", "v", [(0, 0.5)]))
        with pytest.raises(ScheduleError):
            s.validate(1.0)

    def test_gap_shorter_than_tx_time_rejected(self):
        s = schedules(("u", "v", [(0, 5), (5.2, 9)]))
        with pytest.raises(ScheduleError):
            s.validate(1.0)

    def test_empty_interval_rejected(self):
        s = schedules(("u", "v", [(3, 3)]))
        with pytest.raises(ScheduleError):
            s.validate(1.0)


class _Sink:
    """Node driver that just records what it hears."""

    def __init__(self):
        self.got = []

    def on_deliver(self, engine, msg, transmitter, addressed, now, delivery_id=0):
        self.got.append((msg, transmitter, addressed, now))

    def on_timer(self, *a): ...
    def on_action(self, *a): ...
    def on_tunnel(self, *a): ...


def _engine(sched, tau=1.0, seed=1):
    cfg = SimConfig(tau=tau, tx_time=1.0, end_time=50.0, seed=seed,
                    reply_wait_min=8.0, reply_wait_max=64.0)
    eng = Engine(cfg, sched, random.Random(seed))
    sinks = {}
    for n in sched.nodes:
        sinks[n] = _Sink()
        eng.add_node(n, sinks[n])
    return eng, sinks


MSG = Rreq("S", "T", 1, 42, ())


class TestBroadcast:
    def test_reaches_all_up_neighbors_within_tau(self):
        s = schedules(("x", "a", [(0, 50)]), ("x", "b", [(0, 50)]))
        eng, sinks = _engine(s)
        eng.schedule_action(0.0, "x", ("initiate", "T"))  # advance clock hook
        eng.bcast_l("x", MSG)
        assert [(v, addressed) for v, addressed, _ in _queued_deliveries(eng)] == \
            [("a", True), ("b", True)]
        eng.run()
        for n in ("a", "b"):
            (msg, frm, addressed, at) = sinks[n].got[0]
            assert msg is MSG and frm == "x" and addressed
            assert 0 < at <= eng.config.tau

    def test_link_down_during_window_blocks_delivery(self):
        # up interval ends at 0.5 into the 1.0-long transmission
        s = schedules(("x", "a", [(0, 50)]), ("x", "b", [(10, 50)]))
        eng, sinks = _engine(s)
        eng.bcast_l("x", MSG)
        eng.run()
        assert sinks["a"].got and not sinks["b"].got

    def test_isolated_sender_is_a_noop(self):
        s = schedules(("a", "b", [(0, 50)]), nodes=["x", "a", "b"])
        eng, sinks = _engine(s)
        eng.bcast_l("x", MSG)
        assert eng._queue == []
        eng.run()
        assert all(not sink.got for sink in sinks.values())


class TestUnicast:
    def test_up_link_delivers_addressed(self):
        s = schedules(("x", "a", [(0, 50)]))
        eng, sinks = _engine(s)
        assert eng.send_l("x", "a", MSG) is True
        eng.run()
        assert sinks["a"].got[0][2] is True

    def test_down_link_reports_failure(self):
        s = schedules(("x", "a", [(5, 50)]))
        eng, sinks = _engine(s)
        assert eng.send_l("x", "a", MSG) is False
        eng.run()
        assert sinks["a"].got == []
        reports = [te for te in eng.trace if te.primitive == "report"]
        assert [(te.time, te.node, te.digest, te.outcome, te.detail)
                for te in reports] == \
            [(1.0, "x", message_digest(MSG), "failure_reported", "a")]

    def test_third_party_overhears_without_processing(self):
        s = schedules(("x", "a", [(0, 50)]), ("x", "w", [(0, 50)]))
        eng, sinks = _engine(s)
        eng.send_l("x", "a", MSG)
        eng.run()
        (msg, frm, addressed, _) = sinks["w"].got[0]
        assert not addressed
        assert sinks["a"].got[0][2] is True

    def test_self_unicast_rejected(self):
        s = schedules(("x", "a", [(0, 50)]))
        eng, _ = _engine(s)
        with pytest.raises(InvalidEdgeError):
            eng.send_l("x", "x", MSG)


def _random_engine(seed):
    """Random schedules over n00-n09, plus a roster node with no links (z)
    and a linked node that has no driver on the engine (y)."""
    rng = random.Random(seed)
    ids = [f"n{i:02d}" for i in range(10)] + ["y"]
    entries = []
    for i, u in enumerate(ids):
        for v in ids[i + 1:]:
            if rng.random() < 0.4:
                a = rng.choice([0.0, rng.uniform(0, 20)])
                entries.append((u, v, [(a, a + rng.uniform(1, 30))]))
    rng.shuffle(entries)
    s = schedules(*entries, nodes=ids + ["z"])
    eng = Engine(SimConfig(end_time=50.0), s, random.Random(seed))
    for n in s.nodes:
        if n != "y":
            eng.add_node(n, _Sink())
    eng.now = rng.uniform(0, 20)
    return eng, rng


def _full_scan(eng, sender, receiver=None):
    """(receiver, addressed, arrival) of every delivery a frame makes,
    found by testing every roster node in id order."""
    rng = random.Random()
    rng.setstate(eng.rng.getstate())
    t0, t1 = eng.now, eng.now + eng.config.tx_time
    out = []

    def deliver(v, addressed):
        out.append((v, addressed, eng.now + eng.config.tau * (1.0 - rng.random())))
    if receiver is not None and eng.schedules.covers(sender, receiver, t0, t1):
        deliver(receiver, True)
    for v in sorted(eng.nodes):
        if v not in (sender, receiver) and eng.schedules.covers(sender, v, t0, t1):
            deliver(v, receiver is None)
    return out


def _queued_deliveries(eng):
    """(receiver, addressed, arrival) of the queued deliveries, in the
    order they were scheduled."""
    return [(args[0], args[3], at)
            for at, _, handler, args in sorted(eng._queue, key=lambda e: e[1])
            if handler is Engine._deliver]


class TestNeighbourScanMatchesFullScan:
    @pytest.mark.parametrize("seed", range(40))
    def test_broadcast(self, seed):
        eng, rng = _random_engine(seed)
        sender = rng.choice(sorted(eng.nodes))
        expected = _full_scan(eng, sender)
        eng.bcast_l(sender, MSG)
        assert _queued_deliveries(eng) == expected

    @pytest.mark.parametrize("seed", range(40))
    def test_unicast(self, seed):
        eng, rng = _random_engine(seed)
        sender = rng.choice(sorted(eng.nodes))
        receiver = rng.choice([n for n in sorted(eng.nodes) + ["ghost"] if n != sender])
        expected = _full_scan(eng, sender, receiver)
        eng.send_l(sender, receiver, MSG)
        assert _queued_deliveries(eng) == expected

    def test_unicast_off_roster_fails_but_is_overheard(self):
        s = schedules(("x", "a", [(0, 50)]), nodes=["x", "a", "z"])
        eng, sinks = _engine(s)
        assert eng.send_l("x", "ghost", MSG) is False
        assert _queued_deliveries(eng) == _full_scan(_engine(s)[0], "x", "ghost")
        eng.run()
        assert sinks["a"].got[0][2] is False and sinks["z"].got == []


class TestDigestMemo:
    def test_equal_messages_share_one_entry(self):
        eng, _ = _engine(schedules(("x", "a", [(0, 50)])))
        a, b = Rreq("S", "T", 1, 42, ("x",)), Rreq("S", "T", 1, 42, ("x",))
        assert a is not b
        assert eng._digest(a) == eng._digest(b) == message_digest(a)
        assert len(eng._digests) == 1

    def test_none_digests_to_dash(self):
        eng, _ = _engine(schedules(("x", "a", [(0, 50)])))
        assert eng._digest(None) == "-" == eng._digest(None)


class TestOrdering:
    def test_past_event_scheduling_aborts(self):
        s = schedules(("x", "a", [(0, 50)]))
        eng, _ = _engine(s)
        eng.now = 10.0
        with pytest.raises(OrderingError):
            eng.schedule_action(5.0, "x", ("initiate", "a"))

    def test_delivery_latency_bounds(self):
        s = schedules(("x", "a", [(0, 50)]))
        for seed in range(20):
            eng, sinks = _engine(s, tau=2.5, seed=seed)
            eng.bcast_l("x", MSG)
            eng.run()
            (_, _, _, at) = sinks["a"].got[0]
            assert 0 < at <= 2.5

    def test_every_delivery_has_an_earlier_transmission(self):
        scen = scenario_from_dict({
            "name": "d", "nodes": ["S", "a", "T"],
            "config": {"seed": 3, "end_time": 80.0},
            "links": [["S", "a", [[0, 80]]], ["a", "T", [[0, 80]]]],
            "keys": [["S", "T"]],
            "discoveries": [{"src": "S", "dst": "T", "at": 1.0}],
        })
        res = run_scenario(scen)
        tx_times = {}
        for te in res.trace:
            if te.primitive in ("bcast_l", "send_l"):
                tx_times.setdefault(te.digest, te.time)
        for te in res.trace:
            if te.primitive in ("receive_l", "overhear"):
                assert te.digest in tx_times
                assert tx_times[te.digest] <= te.time


DRIVER_HOOKS = {"on_deliver", "on_timer", "on_action", "on_tunnel"}


class TestDriverContract:
    @pytest.mark.parametrize("driver", [SrpNode, AdversaryNode, _Sink])
    def test_drivers_define_the_four_hooks(self, driver):
        assert {n for n in vars(driver) if n.startswith("on_")} == DRIVER_HOOKS

    def test_heap_entries_name_plain_engine_functions(self):
        scen = load_scenario(bundled_scenarios()[0])
        engine = build(scen).engine
        handlers = {handler for _, _, handler, _ in engine._queue}
        assert handlers and handlers <= {Engine._deliver, Engine._fire,
                                         Engine._tunnel_arrive, Engine._act,
                                         Engine._record}

    @pytest.mark.parametrize("path", bundled_scenarios(), ids=lambda p: p.stem)
    def test_engine_freed_without_cyclic_gc(self, path):
        scen = load_scenario(path)
        gc.disable()
        try:
            built = build(scen)
            built.engine.run()
            ref = weakref.ref(built.engine)
            del built
            assert ref() is None
        finally:
            gc.enable()


class TestDeterminism:
    def test_same_seed_same_digest(self):
        scen = scenario_from_dict({
            "name": "d", "nodes": ["S", "a", "b", "T"],
            "config": {"seed": 5, "end_time": 100.0},
            "links": [["S", "a", [[0, 100]]], ["a", "b", [[0, 100]]],
                      ["b", "T", [[0, 100]]], ["S", "b", [[0, 30]]]],
            "keys": [["S", "T"]],
            "discoveries": [{"src": "S", "dst": "T", "at": 1.0}],
        })
        r1, r2 = run_scenario(scen), run_scenario(scen)
        assert r1.digest == r2.digest
        assert [v.as_dict() for v in r1.verdicts] == [v.as_dict() for v in r2.verdicts]

    def test_different_seed_differs_only_in_random_choices(self):
        scen = scenario_from_dict({
            "name": "d", "nodes": ["S", "a", "T"],
            "config": {"seed": 5, "end_time": 100.0},
            "links": [["S", "a", [[0, 100]]], ["a", "T", [[0, 100]]]],
            "keys": [["S", "T"]],
            "discoveries": [{"src": "S", "dst": "T", "at": 1.0}],
        })
        r1 = run_scenario(scen, seed=1)
        r2 = run_scenario(scen, seed=2)
        assert r1.digest != r2.digest  # delay draws differ
        # but the discovered route and verdicts agree
        assert [r.route for r in r1.records] == [r.route for r in r2.records]
        assert [v.loop_free and v.fresh for v in r1.verdicts] == \
               [v.loop_free and v.fresh for v in r2.verdicts]

    def test_empty_scenario_empty_trace(self):
        scen = scenario_from_dict({
            "name": "empty", "nodes": ["a", "b"],
            "config": {"seed": 1, "end_time": 10.0}, "links": [],
        })
        res = run_scenario(scen)
        assert res.trace == [] and res.records == []


@given(st.floats(0, 100), st.floats(0, 100), st.floats(0.1, 100),
       st.floats(0, 100))
def test_up_within_matches_pointwise_probing(a, length, t1, span):
    b = a + length + 0.2
    t2 = t1 + span + 0.1
    sched = LinkSchedule(edge=("u", "v"), up_intervals=((a, b),))
    # dense probe of the open interval as an independent oracle
    probes = [t1 + (t2 - t1) * k / 400 for k in range(1, 400)]
    oracle = any(a <= p < b for p in probes)
    got = sched.up_within(t1, t2)
    if oracle:
        assert got
    # with a coarse probe a False oracle cannot refute up_within; verify
    # True claims structurally instead
    if got:
        assert max(a, t1) < min(b, t2)
