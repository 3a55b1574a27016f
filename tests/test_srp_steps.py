"""Step-level conformance: every registered protocol check fires on a
minimal counterexample and returns its own `srp.RULES` entry, and the action
steps (append, forward-list admission, reply generation, relay, acceptance)
do what they say.  The act code runs against a `CallLog`, and each action
step's test pins its whole sequence of engine calls: a step line comes
before the send, acceptance or timer it reports."""

import pytest
from hypothesis import example, given, strategies as st

from srpsim import (ConfigurationError, RouteRecord, Rrep, Rreq, SrpNode, rrep_verdict,
                    srp, to_scaled)
from srpsim.srp import admit_relay, begin_discovery, receive_rreq, receive_rrep, retry_or_conclude

from conftest import CallLog, make_state
from step_cases import (CFG, DISCARD_CASES, NO_ADMISSION_CASES, _qos, _signed_rrep,
                        _signed_rreq, _source_state_with_discovery, _table)


@pytest.mark.parametrize("case", DISCARD_CASES, ids=lambda c: c.__name__)
def test_numbered_check_fires(case):
    verdict, expected = case()
    assert verdict is not None, "counterexample was not rejected at all"
    assert verdict is expected, f"rejected by {verdict} instead of {expected}"


@pytest.mark.parametrize("case", NO_ADMISSION_CASES, ids=lambda c: c.__name__)
def test_relay_not_admitted(case):
    seen, forward_list = case()
    assert seen is None and forward_list == {}


_ids = st.sampled_from(["a", "m", "v", "w"])


@st.composite
def _relay_cases(draw):
    """(list a node sent, transmitter, list it hears): the exact relay,
    one with another last hop, one with an entry of the sent list changed,
    the exact relay as a list, or any list."""
    sent = tuple(draw(st.lists(_ids, max_size=4)))
    transmitter = draw(_ids)
    shape = draw(st.sampled_from(["exact", "last-hop", "prefix", "list", "any"]))
    if shape == "exact":
        heard = sent + (transmitter,)
    elif shape == "last-hop":
        heard = sent + (draw(_ids.filter(lambda v: v != transmitter)),)
    elif shape == "prefix" and sent:
        i = draw(st.integers(0, len(sent) - 1))
        other = draw(_ids.filter(lambda v: v != sent[i]))
        heard = sent[:i] + (other,) + sent[i + 1:] + (transmitter,)
    elif shape == "list":
        heard = list(sent + (transmitter,))
    else:
        heard = tuple(draw(st.lists(_ids, max_size=6)))
    return sent, transmitter, heard


def _calls(act, *args):
    """The engine calls `act(engine, *args)` makes, as (method, arguments)."""
    engine = CallLog()
    act(engine, *args)
    return engine.calls


def _query(node, dst, qid, reply_wait, now, rreq):
    """The calls that send a query: its step line, the broadcast, the timer."""
    return [("trace_step", (node, "query", f"dst={dst} qid={qid} reply_wait={reply_wait!r}",
                            rreq)),
            ("bcast_l", (node, rreq)),
            ("arm_timer", (node, now + reply_wait, ("replywait", dst, qid)))]


class TestRequestActions:
    def test_2_2_4_appends_self_and_rebroadcasts(self):
        table = _table()
        state = make_state("m", table)
        calls = _calls(receive_rreq, state, _signed_rreq(table, ("a",)), "a")
        out = state.relayed[("S", 1)]
        assert calls == [("trace_step", ("m", "relay", "2.2.4", out)), ("bcast_l", ("m", out))]
        assert out.node_list == ("a", "m")
        assert ("S", 1) in state.seen
        assert state.fwd[("S", 1)] == {}

    def test_2_2_4_appends_own_link_metric(self):
        table = _table()
        qos = _qos(actual={("a", "m"): 1.5})
        state = make_state("m", table)
        rreq = _signed_rreq(table, ("a",), metric_list=(to_scaled(1.0),))
        calls = _calls(receive_rreq, state, rreq, "a", qos)
        out = state.relayed[("S", 1)]
        assert calls == [("trace_step", ("m", "relay", "2.2.4", out)), ("bcast_l", ("m", out))]
        assert out.metric_list == (to_scaled(1.0), to_scaled(1.5))
        # stored prefix covers both links (step 2.2.7)
        assert state.prefix_metric[("S", 1)] == to_scaled(2.5)

    def test_2_2_5_admits_exact_relay_only(self):
        table = _table()
        state = make_state("m", table)
        receive_rreq(CallLog(), state, _signed_rreq(table, ("a",)), "a")
        # v relays exactly our list plus itself: admitted
        seen = admit_relay(state, _signed_rreq(table, ("a", "m", "v")), "v")
        assert seen == ("fl-add", "2.2.5 neighbor=v")
        assert "v" in state.fwd[("S", 1)]
        # w relays something else: not admitted
        assert admit_relay(state, _signed_rreq(table, ("a", "w")), "w") is None
        assert admit_relay(state, _signed_rreq(table, ("a", "m", "x", "w")), "w") is None
        assert "w" not in state.fwd[("S", 1)]
        # the appended identity must be the actual transmitter
        assert admit_relay(state, _signed_rreq(table, ("a", "m", "v2")), "other") is None
        assert "v2" not in state.fwd[("S", 1)]

    @given(_relay_cases())
    @example(((), "v", ("v",)))  # the first hop after the source
    @example((("a",), "v", ("a", "w")))  # one entry longer, another last hop
    @example((("a", "m"), "v", ("a", "w", "v")))  # another prefix
    @example((("a", "m"), "v", ["a", "m", "v"]))  # a list is not a tuple
    def test_2_2_5_early_reject_agrees_with_the_tuple_comparison(self, case):
        sent, transmitter, heard = case
        state = make_state("m")
        state.relayed[("S", 1)] = Rreq("S", "T", 1, 0, sent)
        state.fwd[("S", 1)] = {}
        seen = admit_relay(state, Rreq("S", "T", 1, 0, heard), transmitter)
        admitted = heard == sent + (transmitter,)
        assert seen == (("fl-add", f"2.2.5 neighbor={transmitter}") if admitted else None)
        assert list(state.fwd[("S", 1)]) == ([transmitter] if admitted else [])

    def test_2_2_5_metric_tolerance_gates_admission(self):
        table = _table()
        qos = _qos(epsilon=0.1, actual={("a", "m"): 1.0, ("m", "v"): 1.0})
        state = make_state("m", table)
        rreq = _signed_rreq(table, ("a",), metric_list=(to_scaled(1.0),))
        receive_rreq(CallLog(), state, rreq, "a", qos)
        base = state.relayed[("S", 1)].metric_list
        ok = Rreq("S", "T", 1, rreq.auth, ("a", "m", "v"), base + (to_scaled(1.05),))
        assert admit_relay(state, ok, "v", qos) == ("fl-add", "2.2.5 neighbor=v")
        assert state.fwd[("S", 1)]["v"] == to_scaled(1.05)
        state.fwd[("S", 1)].clear()
        off = Rreq("S", "T", 1, rreq.auth, ("a", "m", "v"), base + (to_scaled(1.2),))
        assert admit_relay(state, off, "v", qos) == ("fl-reject", "2.2.5 neighbor=v")
        assert "v" not in state.fwd[("S", 1)]

    def test_2_1_2_source_admits_first_hop(self):
        table = _table()
        state = _source_state_with_discovery(table)
        seen = admit_relay(state, _signed_rreq(table, ("v",)), "v")
        assert seen == ("fl-add", "2.1.2 neighbor=v")
        assert "v" in state.fwd[("S", 1)]

    def test_3_reply_reverses_list_and_signs(self):
        table = _table()
        state = make_state("T", table)
        calls = _calls(receive_rreq, state, _signed_rreq(table, ("a", "b")), "b")
        auth = table["T"].mac("S", ("S", "T", 1, ("b", "a")))
        rrep = Rrep("S", "T", 1, ("b", "a"), auth, None)
        assert calls == [("trace_step", ("T", "reply", "3.2 to=b", rrep)),
                         ("send_l", ("T", "b", rrep))]
        assert ("S", 1) in state.seen

    def test_3_reply_single_hop_goes_straight_to_source(self):
        table = _table()
        state = make_state("T", table)
        calls = _calls(receive_rreq, state, _signed_rreq(table, ()), "S")
        rrep = Rrep("S", "T", 1, (), table["T"].mac("S", ("S", "T", 1, ())), None)
        assert calls == [("trace_step", ("T", "reply", "3.2 to=S", rrep)),
                         ("send_l", ("T", "S", rrep))]

    def test_destination_answers_only_first_copy(self):
        table = _table()
        state = make_state("T", table)
        first = _calls(receive_rreq, state, _signed_rreq(table, ("a",)), "a")
        assert [name for name, _ in first] == ["trace_step", "send_l"]
        copy = _signed_rreq(table, ("b",))
        assert _calls(receive_rreq, state, copy, "b") == [
            ("trace_step", ("T", "discard", srp.DEST_DUPLICATE.text, copy))]


class TestReplyActions:
    def test_4_4_relays_to_predecessor(self):
        table = _table()
        state = make_state("m", table)
        state.fwd[("S", 1)] = {"b": None}
        rrep = _signed_rrep(table, ("b", "m", "a"))
        assert _calls(receive_rrep, state, rrep, "b", 4.0, CFG) == [
            ("trace_step", ("m", "relay", "4.4 to=a", rrep)), ("send_l", ("m", "a", rrep))]

    def test_4_4_last_intermediate_relays_to_source(self):
        table = _table()
        state = make_state("m", table)
        state.fwd[("S", 1)] = {"b": None}
        rrep = _signed_rrep(table, ("b", "m"))
        assert _calls(receive_rrep, state, rrep, "b", 4.0, CFG) == [
            ("trace_step", ("m", "relay", "4.4 to=S", rrep)), ("send_l", ("m", "S", rrep))]

    def test_4_5_accepts_and_extracts_route(self):
        table = _table()
        state = _source_state_with_discovery(table)
        admit_relay(state, _signed_rreq(table, ("a",)), "a")
        rrep = _signed_rrep(table, ("b", "a"))
        record = RouteRecord(route=("S", "a", "b", "T"), t1=1.0, t2=5.0, qid=1)
        assert _calls(receive_rrep, state, rrep, "a", 5.0, CFG) == [
            ("trace_step", ("S", "accepted", "4.5", rrep)),
            ("accept_route", ("S", record)),
            ("arm_timer", ("S", 1.0 + CFG.reply_wait_min, ("conclude", "T", 1)))]
        assert state.discoveries["T"].accepted == 1

    def test_4_2_applies_at_source_too(self):
        table = _table()
        state = _source_state_with_discovery(table)
        rrep = _signed_rrep(table, ("b", "a"))
        assert rrep_verdict(state, rrep, "a", None) is srp.NOT_IN_FORWARD_LIST

    def test_single_hop_acceptance(self):
        table = _table()
        state = _source_state_with_discovery(table)
        rrep = _signed_rrep(table, ())
        record = RouteRecord(route=("S", "T"), t1=1.0, t2=5.0, qid=1)
        assert _calls(receive_rrep, state, rrep, "T", 5.0, CFG) == [
            ("trace_step", ("S", "accepted", "4.5", rrep)),
            ("accept_route", ("S", record)),
            ("arm_timer", ("S", 1.0 + CFG.reply_wait_min, ("conclude", "T", 1)))]


class TestFormatRules:
    def test_endpoint_in_node_list_is_rejected_everywhere(self):
        table = _table()
        rreq = _signed_rreq(table, ("T", "a"))
        for node in ("m", "T"):
            assert _calls(receive_rreq, make_state(node, table), rreq, "a") == [
                ("trace_step", (node, "discard", srp.ENDPOINT_IN_NODE_LIST.text, rreq))]

    def test_endpoint_in_route_is_rejected(self):
        table = _table()
        state = make_state("m", table)
        rrep = Rrep("S", "T", 1, ("T", "m"), 123, None)
        assert rrep_verdict(state, rrep, "T", None) is srp.ENDPOINT_IN_ROUTE

    def test_generator_never_relays_its_own_reply(self):
        table = _table()
        state = make_state("T", table)
        rrep = Rrep("S", "T", 1, ("m",), 123, None)
        assert rrep_verdict(state, rrep, "m", None) is srp.REPLY_AT_GENERATOR

    def test_off_route_node_rejects_reply(self):
        table = _table()
        state = make_state("w", table)
        rrep = _signed_rrep(table, ("b", "a"))
        assert rrep_verdict(state, rrep, "b", None) is srp.NOT_ON_ROUTE


class TestDiscoveryLifecycle:
    def test_first_query_broadcast_and_timer(self):
        table = _table()
        state = make_state("S", table)
        calls = _calls(begin_discovery, state, "T", 1.0, CFG)
        rreq = state.relayed[("S", 1)]
        assert calls == _query("S", "T", 1, CFG.reply_wait_min, 1.0, rreq)
        assert rreq.qid == 1 and rreq.node_list == ()

    def test_discovery_without_shared_key_is_a_configuration_error(self):
        table = _table()
        state = make_state("S", table)
        engine = CallLog()
        with pytest.raises(ConfigurationError):
            begin_discovery(engine, state, "stranger", 1.0, CFG)
        assert engine.calls == []

    def test_second_invocation_defers(self):
        table = _table()
        state = _source_state_with_discovery(table)
        assert _calls(begin_discovery, state, "T", 2.0, CFG) == [
            ("trace_step", ("S", "defer", "discovery for T already under way"))]
        assert state.deferred["T"] == 1

    def test_timeout_retries_with_doubled_timer_and_fresh_qid(self):
        table = _table()
        state = _source_state_with_discovery(table)
        calls = _calls(retry_or_conclude, state, "T", 1, 9.0, CFG)
        rreq = state.relayed[("S", 2)]
        assert calls == [("trace_step", ("S", "retry", "dst=T qid=1 next_reply_wait=16.0"))] \
            + _query("S", "T", 2, 16.0, 9.0, rreq)
        assert state.discoveries["T"].reply_wait == 16.0

    def test_timer_updates_clamp_at_maximum(self):
        table = _table()
        state = make_state("S", table)
        begin_discovery(CallLog(), state, "T", 0.0, CFG)
        now, qid = 0.0, 1
        for _ in range(6):
            disc = state.discoveries["T"]
            now = disc.t1 + disc.reply_wait
            retry_or_conclude(CallLog(), state, "T", qid, now, CFG)
            qid += 1
        assert state.discoveries["T"].reply_wait == CFG.reply_wait_max

    def test_acceptance_before_minimum_defers_conclusion(self):
        table = _table()
        state = _source_state_with_discovery(table)
        admit_relay(state, _signed_rreq(table, ("a",)), "a")
        calls = _calls(receive_rrep, state, _signed_rrep(table, ("a",)), "a", 3.0, CFG)
        assert [name for name, _ in calls] == ["trace_step", "accept_route", "arm_timer"]
        assert calls[-1] == ("arm_timer", ("S", 1.0 + CFG.reply_wait_min, ("conclude", "T", 1)))
        assert state.discoveries["T"].accepted == 1

    def test_acceptance_after_minimum_concludes_immediately(self):
        table = _table()
        state = _source_state_with_discovery(table)
        admit_relay(state, _signed_rreq(table, ("a",)), "a")
        rrep = _signed_rrep(table, ("a",))
        record = RouteRecord(route=("S", "a", "T"), t1=1.0, t2=20.0, qid=1)
        assert _calls(receive_rrep, state, rrep, "a", 20.0, CFG) == [
            ("trace_step", ("S", "accepted", "4.5", rrep)),
            ("accept_route", ("S", record)),
            ("trace_step", ("S", "conclude", "dst=T qid=1 accepted=1"))]
        assert "T" not in state.discoveries

    @pytest.mark.parametrize("deferred", [False, True], ids=["direct", "deferred"])
    def test_discovery_after_a_conclusion_starts_at_the_minimum_timer(self, deferred):
        # qid 1 times out and qid 2 retries with a doubled timer; once qid 2
        # concludes, the next discovery toward T waits reply_wait_min again
        table = _table()
        state = _source_state_with_discovery(table)
        retry_or_conclude(CallLog(), state, "T", 1, 9.0, CFG)
        assert state.discoveries["T"].reply_wait == 2 * CFG.reply_wait_min
        if deferred:
            begin_discovery(CallLog(), state, "T", 10.0, CFG)
        admit_relay(state, _signed_rreq(table, ("a",), qid=2), "a")
        calls = _calls(receive_rrep, state, _signed_rrep(table, ("a",), qid=2), "a", 30.0, CFG)
        assert ("trace_step", ("S", "conclude", "dst=T qid=2 accepted=1")) in calls
        now = 30.0
        if not deferred:
            now = 31.0
            calls = _calls(begin_discovery, state, "T", now, CFG)
        assert calls[-3:] == _query("S", "T", 3, CFG.reply_wait_min, now, state.relayed[("S", 3)])
        assert state.discoveries["T"].reply_wait == CFG.reply_wait_min

    def test_reply_after_conclusion_is_stale(self):
        table = _table()
        state = _source_state_with_discovery(table)
        admit_relay(state, _signed_rreq(table, ("a",)), "a")
        receive_rrep(CallLog(), state, _signed_rrep(table, ("a",)), "a", 20.0, CFG)
        verdict = rrep_verdict(state, _signed_rrep(table, ("a",)), "a", None)
        assert verdict is srp.STALE_REPLY

    def test_conclusion_releases_deferred_invocation(self):
        table = _table()
        state = _source_state_with_discovery(table)
        begin_discovery(CallLog(), state, "T", 2.0, CFG)
        admit_relay(state, _signed_rreq(table, ("a",)), "a")
        calls = _calls(receive_rrep, state, _signed_rrep(table, ("a",)), "a", 20.0, CFG)
        assert [name for name, _ in calls] == [
            "trace_step", "accept_route", "trace_step", "trace_step", "bcast_l", "arm_timer"]
        assert calls[-3:] == _query("S", "T", 2, CFG.reply_wait_min, 20.0, state.relayed[("S", 2)])
        assert state.deferred["T"] == 0

    def _accepted_before_minimum(self, table, *relays):
        """qid 1, with one route accepted per relay in `relays` before
        reply_wait_min; returns the engine calls of each acceptance."""
        state = _source_state_with_discovery(table)
        calls = []
        for t, relay in enumerate(relays, start=3):
            admit_relay(state, _signed_rreq(table, (relay,)), relay)
            calls.append(_calls(receive_rrep, state, _signed_rrep(table, (relay,)), relay,
                                float(t), CFG))
        return state, calls

    @pytest.mark.parametrize("first, second", [("conclude", "replywait"),
                                               ("replywait", "conclude")])
    def test_timer_of_an_accepting_discovery_concludes_once(self, first, second):
        table = _table()
        state, _ = self._accepted_before_minimum(table, "a")
        node, engine = SrpNode(state, CFG), CallLog()
        concluded = [("trace_step", ("S", "conclude", "dst=T qid=1 accepted=1"))]
        node.on_timer(engine, (first, "T", 1), 9.0)
        assert engine.calls == concluded
        assert "T" not in state.discoveries
        node.on_timer(engine, (second, "T", 1), 9.0)
        assert engine.calls == concluded

    def test_second_acceptance_before_minimum_arms_no_second_timer(self):
        table = _table()
        state, (calls1, calls2) = self._accepted_before_minimum(table, "a", "b")
        assert [name for name, _ in calls1] == ["trace_step", "accept_route", "arm_timer"]
        assert calls1[-1][1][2] == ("conclude", "T", 1)
        assert [name for name, _ in calls2] == ["trace_step", "accept_route"]
        assert state.discoveries["T"].accepted == 2

    def test_a_correct_node_ignores_tunnelled_traffic(self):
        table = _table()
        state = _source_state_with_discovery(table)
        before, engine = repr(state), CallLog()
        SrpNode(state, CFG).on_tunnel(engine, _signed_rrep(table, ("a",)), "m", 3.0)
        assert engine.calls == [] and repr(state) == before

    def test_timer_of_a_superseded_query_does_nothing(self):
        table = _table()
        state = _source_state_with_discovery(table)
        retry_or_conclude(CallLog(), state, "T", 1, 9.0, CFG)  # qid 1 retries as qid 2
        current = state.discoveries["T"]
        assert _calls(retry_or_conclude, state, "T", 1, 10.0, CFG) == []
        assert state.discoveries["T"] is current and current.qid == 2
