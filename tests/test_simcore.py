"""Link-layer engine: link state lookups, delivery windows, failure reports,
overhearing, event ordering, and replay determinism."""

import gc
import hashlib
import inspect
import json
import random
import weakref
from dataclasses import asdict, replace

import pytest
from hypothesis import given, strategies as st

from srpsim import (AdversaryClass, AdversaryNode, Engine, InvalidEdgeError,
                    KeyTable, LinkSchedule, OrderingError, Rreq, ScheduleError,
                    ScheduleMap, SimConfig, SrpNode, build, bundled_scenarios,
                    identity, load_scenario, run_scenario, scenario_from_dict,
                    simcore)
from srpsim.harness import random_scenario
from srpsim.scenario import Scenario
from srpsim.simcore import _CHUNK, message_digest, trace_digest_of_lines
from reference_engine import ReferenceEngine, run_both
from test_golden_grid import grid


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

    def on_deliver(self, engine, msg, transmitter, addressed, now):
        self.got.append((msg, transmitter, addressed, now))

    def on_timer(self, engine, tag, now): ...
    def on_action(self, engine, action, now): ...
    def on_tunnel(self, engine, msg, frm, now): ...


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

    @pytest.mark.parametrize("receiver", [None, "a", "ghost"])
    def test_each_delivery_carries_its_frame_digest(self, receiver):
        # a broadcast, a sent unicast and a failed one that is only overheard
        s = schedules(("x", "a", [(0, 50)]), ("x", "b", [(0, 50)]),
                      ("x", "c", [(10, 50)]), nodes=["x", "a", "b", "c", "z"])
        eng, _ = _engine(s)
        msg = Rreq("S", "T", 1, 42, ("x",))
        if receiver is None:
            eng.bcast_l("x", msg)
        else:
            eng.send_l("x", receiver, msg)
        carried = [(args[0], args[1], args[-1]) for _, _, handler, args in eng._queue
                   if handler is Engine._deliver]
        assert sorted(v for v, _, _ in carried) == ["a", "b"]
        assert all(m is msg and d == message_digest(msg) for _, m, d in carried)


class TestDigestMemo:
    def test_equal_messages_share_one_entry(self):
        eng, _ = _engine(schedules(("x", "a", [(0, 50)])))
        a, b = Rreq("S", "T", 1, 42, ("x",)), Rreq("S", "T", 1, 42, ("x",))
        assert a is not b
        assert eng._digest(a) == eng._digest(b) == message_digest(a)
        # each entry holds its message, so a memoised id is never reused
        assert all(id(msg) == key for key, (msg, _) in eng._digests.items())

    def test_none_digests_to_dash(self):
        eng, _ = _engine(schedules(("x", "a", [(0, 50)])))
        assert eng._digest(None) == "-" == eng._digest(None)

    def test_a_run_digests_each_message_object_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(simcore, "message_digest",
                            lambda msg: calls.append(msg) or message_digest(msg))
        eng, _ = _engine(schedules(("x", "a", [(0, 50)])))
        a, b = Rreq("S", "T", 1, 42, ("x",)), Rreq("S", "T", 1, 42, ("x",))
        for msg in (a, a, b, a, b):
            eng._digest(msg)
        assert [id(m) for m in calls] == [id(a), id(b)]

    def test_the_process_encodes_equal_messages_once(self, monkeypatch):
        encoded = []
        encode = simcore._wire_bytes
        monkeypatch.setattr(simcore, "_wire_bytes",
                            lambda fields: encoded.append(fields) or encode(fields))
        simcore._DIGESTS.clear()
        msgs = [Rreq("S", "T", 1, 42, ("x",)), Rreq("S", "T", 1, 42, ("x",)),
                Rreq("S", "T", 1, 42, ("x", "y"))]
        digests = []
        for msg in msgs:  # a new engine per message: a new run each
            eng, _ = _engine(schedules(("x", "a", [(0, 50)])))
            digests.append(eng._digest(msg))
        assert digests[0] == digests[1] != digests[2]
        assert encoded == [msgs[0].wire_fields(), msgs[2].wire_fields()]
        assert simcore._DIGESTS == {m.wire_fields(): d for m, d in zip(msgs, digests)}

    def test_the_process_computes_equal_macs_once(self, monkeypatch):
        encoded = []
        encode = identity.encode_fields
        monkeypatch.setattr(identity, "encode_fields",
                            lambda fields: encoded.append(fields) or encode(fields))
        identity._MACS.clear()
        table = KeyTable()
        table.grant("S", "T")
        first = table.ring("S").mac("T", ("S", "T", 1))
        # the other holder, and a fresh table with the same key, hit the memo
        again = KeyTable()
        again.grant("T", "S")
        assert table.ring("T").mac("S", ("S", "T", 1)) == first \
            == again.ring("S").mac("T", ["S", "T", 1])
        assert encoded == [("S", "T", 1)]
        assert table.ring("S").mac("T", ("S", "T", 2)) != first
        assert len(encoded) == 2


def _trace_cases():
    for path in bundled_scenarios():
        yield pytest.param(load_scenario(path), id=path.stem)
    for k in (4, 8):
        yield pytest.param(grid(k), id=f"grid{k}")
    for klass in AdversaryClass:
        for mode in ("basic", "augmented"):
            for s in range(3):
                sc = random_scenario(random.Random(f"fuzz-scenario|{s}"),
                                     klass, mode, 8, s)
                yield pytest.param(sc, id=f"fuzz-{klass.value}-{mode}-{s}")


def _ended_lines_digest(lines):
    data = "".join(line + "\n" for line in lines).encode()
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


class TestTraceLines:
    @pytest.mark.parametrize("scenario", _trace_cases())
    def test_parsed_events_render_the_stored_lines(self, scenario):
        engine = build(scenario)
        trace = engine.run()
        events = list(trace)
        assert [te.line() for te in events] == trace.lines
        assert len(trace) == len(trace.lines) == len(events) > 0
        assert all(type(te.time) is float and type(te.seq) is int for te in events)
        assert (trace[0].line(), trace[-1].line()) == (trace.lines[0], trace.lines[-1])
        assert engine.trace_digest() == _ended_lines_digest(trace.lines) \
            == trace_digest_of_lines(te.line() for te in trace)

    @pytest.mark.parametrize("lines", [[], [""], ["a"], ["a", "", "b c"]],
                             ids=["none", "one-empty", "one", "three"])
    def test_digest_of_lines_hashes_each_line_with_its_break(self, lines):
        assert trace_digest_of_lines(lines) == _ended_lines_digest(lines) \
            == trace_digest_of_lines(line for line in lines)

    @pytest.mark.parametrize("n", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1])
    def test_digest_of_lines_is_unmoved_by_slice_edges(self, n):
        # an empty line on each side of every slice edge: a break dropped or
        # doubled there moves the digest
        lines = ["" if i % _CHUNK in (0, _CHUNK - 1) else f"{i} x" for i in range(n)]
        assert trace_digest_of_lines(lines) == _ended_lines_digest(lines) \
            == trace_digest_of_lines(line for line in lines)

    def test_negative_zero_renders_apart_from_zero(self):
        # 0.0 == -0.0, but the two times print differently
        path = next(p for p in bundled_scenarios() if p.stem == "benign_basic")
        d = json.loads(path.read_text())
        d["links"][0][2][0][0] = -0.0
        d["discoveries"][0]["at"] = 0.0
        engine = build(scenario_from_dict(d))
        engine.run()
        lines = [te.line() for te in engine.trace]
        assert lines == engine.trace.lines
        assert lines[0].startswith("-0.0 8 S link ")
        assert lines[1].startswith("0.0 9 T link ")
        assert engine.trace_digest() == trace_digest_of_lines(lines) \
            == 0x69a7703bf9304305


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


# each hook's parameters after self: exactly what the engine passes
DRIVER_HOOKS = {
    "on_deliver": ("engine", "msg", "transmitter", "addressed", "now"),
    "on_timer": ("engine", "tag", "now"),
    "on_action": ("engine", "action", "now"),
    "on_tunnel": ("engine", "msg", "frm", "now"),
}


class TestDriverContract:
    @pytest.mark.parametrize("driver", [SrpNode, AdversaryNode, _Sink])
    def test_drivers_define_the_four_hooks(self, driver):
        assert {n for n in vars(driver) if n.startswith("on_")} == set(DRIVER_HOOKS)

    @pytest.mark.parametrize("driver", [SrpNode, AdversaryNode, _Sink])
    @pytest.mark.parametrize("hook", sorted(DRIVER_HOOKS))
    def test_hooks_take_what_the_engine_passes(self, driver, hook):
        params = tuple(inspect.signature(getattr(driver, hook)).parameters)
        assert params == ("self",) + DRIVER_HOOKS[hook]

    def test_heap_entries_name_plain_engine_functions(self):
        scen = load_scenario(bundled_scenarios()[0])
        engine = build(scen)
        handlers = {handler for _, _, handler, _ in engine._queue}
        assert handlers and handlers <= {Engine._deliver, Engine._fire,
                                         Engine._tunnel_arrive, Engine._act,
                                         Engine._record}

    @pytest.mark.parametrize("path", bundled_scenarios(), ids=lambda p: p.stem)
    def test_engine_freed_without_cyclic_gc(self, path):
        scen = load_scenario(path)
        gc.disable()
        try:
            engine = build(scen)
            engine.run()
            refs = [weakref.ref(engine)]
            refs += [weakref.ref(d) for d in engine.nodes.values()]
            del engine
            assert [r() for r in refs] == [None] * len(refs)
        finally:
            gc.enable()


def _link_lines(engine):
    return [(e.time, e.outcome, e.detail) for e in engine.trace if e.primitive == "link"]


class _Actor(_Sink):
    """Sink that writes a trace line for every action, and unicasts over the
    down link to `c` on an adversary move, so its failure report falls
    tx_time later."""

    def __init__(self, node):
        super().__init__()
        self.node = node

    def on_action(self, engine, action, now):
        engine.trace_step(self.node, "acted", ":".join(action))
        if action == ("adversary_time",):
            engine.send_l(self.node, "c", MSG)


class TestLinkChangeSeeding:
    @pytest.mark.parametrize("stem", ["replay_stale_rrep_arbitrary", "fig1a_tunnel"])
    def test_run_as_with_one_push_per_change(self, stem):
        # no bundled scenario schedules spontaneous adversary actions, so
        # one adversary becomes a fuzz script that does, queued before the
        # link changes; a colluder whose tunnel ends there would have no
        # tunnel back, so it turns passive
        d = json.loads(next(p for p in bundled_scenarios() if p.stem == stem).read_text())
        node = sorted(d["adversaries"])[0]
        for spec in d["adversaries"].values():
            if node in spec.get("params", {}).get("path", ()):
                spec.update(attack="passive", params={})
        d["adversaries"][node] = {"class": "arbitrary", "attack": "fuzz", "params": {
            "seed": 7, "bounds": {"spontaneous": 40}}}
        d["links"].append([d["nodes"][0], node, [[0, 20], [25, 60], [70, 500]]])
        scen = scenario_from_dict(d)
        assert any(h is Engine._act and args[1] == ("adversary_time",)
                   for _, _, h, args in build(scen)._queue)
        got, want = run_both(scen)
        assert _link_lines(got)
        assert got.lines == want.lines
        assert got._seq == want._seq
        assert got.trace_digest() == want.trace_digest()

    def test_changes_past_end_time_never_run(self):
        scen = scenario_from_dict({
            "name": "late", "nodes": ["a", "b", "c"],
            "config": {"seed": 1, "end_time": 40.0},
            "links": [["a", "b", [[0, 50]]], ["b", "c", [[10, 40], [45, 60]]]],
        })
        got, want = run_both(scen)
        assert _link_lines(got) == [(0.0, "up", "a-b"), (10.0, "up", "b-c"),
                                    (40.0, "down", "b-c")]
        assert got.lines == want.lines
        # three seqs reserved at build, three taken by the lines
        assert got._seq == want._seq == 6
        assert got.trace_digest() == want.trace_digest()
        got.run()  # a second run has nothing left to do
        assert got.lines == want.lines

    def test_ties_with_heap_events_break_by_seq(self):
        # at 5.0 a link change ties with an adversary move queued before the
        # changes and a discovery start queued after them; at 6.0 another
        # ties with the failure report the move's unicast pushes mid-run
        sched = schedules(("a", "b", [(0, 5), (6, 20)]), ("b", "c", [(5, 30)]),
                          nodes=["a", "b", "c"])

        def make(engine_class):
            eng = engine_class(SimConfig(end_time=50.0), sched, random.Random(1))
            for n in sched.nodes:
                eng.add_node(n, _Actor(n))
            eng.schedule_action(5.0, "a", ("adversary_time",))
            eng.seed_link_changes()
            eng.schedule_action(5.0, "b", ("initiate", "c"))
            return eng

        got, want = make(Engine), make(ReferenceEngine)
        got.run()
        want.run()
        assert got.lines == want.lines
        assert [(e.time, e.node, e.primitive, e.outcome) for e in got.trace
                if e.time in (5.0, 6.0)] == [
            (5.0, "a", "step", "acted"), (5.0, "a", "send_l", "failure_reported"),
            (5.0, "a", "link", "down"), (5.0, "b", "link", "up"),
            (5.0, "b", "step", "acted"),
            (6.0, "a", "link", "up"), (6.0, "a", "report", "failure_reported")]

    def test_stretches_end_at_tied_heap_heads(self):
        # the discoveries are queued after the link changes, so each ties
        # with the changes at its time and sorts after all of them: the
        # stretch at 0.0 ends at the first discovery, the one at end_time
        # at the second
        scen = grid(5)
        end = scen.config.end_time
        scen = replace(scen, discoveries=(("S", "T", 0.0), ("S", "T", end)))
        got, want = run_both(scen)
        assert got.lines == want.lines
        assert got._seq == want._seq
        assert got.trace_digest() == want.trace_digest()
        for t, state in ((0.0, "up"), (end, "down")):
            at_t = [(e.primitive, e.outcome) for e in got.trace if e.time == t]
            assert at_t[:len(scen.links)] == [("link", state)] * len(scen.links)
            assert at_t[len(scen.links)] == ("step", "query" if t == 0.0 else "defer")

    def test_heap_holds_only_the_discovery_after_build(self):
        scen = grid(20)
        engine = build(scen)
        assert len(scen.links) == 760
        assert engine._queue == [(1.0, engine._seq, Engine._act, ("S", ("initiate", "T")))]
        assert engine._seq == 2 * 760 + 1

    def test_negative_start_without_validate_aborts_build(self):
        # Scenario() itself does not validate; the engine still refuses to
        # queue a link change before time 0
        scen = Scenario(name="neg", config=SimConfig(end_time=40.0),
                        nodes=("a", "b"), keys=(), discoveries=(),
                        links=(LinkSchedule(("a", "b"), ((-5.0, 30.0),)),))
        with pytest.raises(OrderingError, match="before current time"):
            build(scen)


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
        assert [asdict(v) for v in r1.verdicts] == [asdict(v) for v in r2.verdicts]

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
        assert len(res.trace) == 0 and res.records == []


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
