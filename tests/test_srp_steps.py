"""Step-level conformance: every registered protocol check fires on a
minimal counterexample and returns its own `srp.RULES` entry, and the action
steps (append, forward-list admission, reply generation, relay, acceptance)
do what they say."""

import pytest
from hypothesis import example, given, strategies as st

from srpsim import (Accept, ArmTimer, Broadcast, ConfigurationError, Rrep,
                    Rreq, SrpNode, Unicast,
                    handle_rreq, initiate_discovery, observe_relay,
                    on_discovery_timer, process_rrep, rrep_verdict, srp,
                    to_scaled)
from srpsim.srp import Note

from conftest import make_state
from step_cases import (CFG, DISCARD_CASES, NO_ADMISSION_CASES, _qos, _signed_rrep,
                        _signed_rreq, _source_state_with_discovery, _table)


@pytest.mark.parametrize("case", DISCARD_CASES, ids=lambda c: c.__name__)
def test_numbered_check_fires(case):
    verdict, expected = case()
    assert verdict is not None, "counterexample was not rejected at all"
    assert verdict is expected, f"rejected by {verdict} instead of {expected}"


@pytest.mark.parametrize("case", NO_ADMISSION_CASES, ids=lambda c: c.__name__)
def test_relay_not_admitted(case):
    effects, forward_list = case()
    assert effects == [] and forward_list == {}


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


def _effects_of(kind, effects):
    return [f for f in effects if isinstance(f, kind)]


class TestRequestActions:
    def test_2_2_4_appends_self_and_rebroadcasts(self):
        table = _table()
        state = make_state("m", table)
        fx = handle_rreq(state, _signed_rreq(table, ("a",)), "a")
        (bc,) = _effects_of(Broadcast, fx)
        assert bc.msg.node_list == ("a", "m")
        assert ("S", 1) in state.seen
        assert state.relayed[("S", 1)].node_list == ("a", "m")
        assert state.fwd[("S", 1)] == {}

    def test_2_2_4_appends_own_link_metric(self):
        table = _table()
        qos = _qos(actual={("a", "m"): 1.5})
        state = make_state("m", table)
        rreq = _signed_rreq(table, ("a",), metric_list=(to_scaled(1.0),))
        fx = handle_rreq(state, rreq, "a", qos)
        (bc,) = _effects_of(Broadcast, fx)
        assert bc.msg.metric_list == (to_scaled(1.0), to_scaled(1.5))
        # stored prefix covers both links (step 2.2.7)
        assert state.prefix_metric[("S", 1)] == to_scaled(2.5)

    def test_2_2_5_admits_exact_relay_only(self):
        table = _table()
        state = make_state("m", table)
        handle_rreq(state, _signed_rreq(table, ("a",)), "a")
        # v relays exactly our list plus itself: admitted
        observe_relay(state, _signed_rreq(table, ("a", "m", "v")), "v")
        assert "v" in state.fwd[("S", 1)]
        # w relays something else: not admitted
        observe_relay(state, _signed_rreq(table, ("a", "w")), "w")
        observe_relay(state, _signed_rreq(table, ("a", "m", "x", "w")), "w")
        assert "w" not in state.fwd[("S", 1)]
        # the appended identity must be the actual transmitter
        observe_relay(state, _signed_rreq(table, ("a", "m", "v2")), "other")
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
        fx = observe_relay(state, Rreq("S", "T", 1, 0, heard), transmitter)
        admitted = heard == sent + (transmitter,)
        assert [f.outcome for f in fx] == (["fl-add"] if admitted else [])
        assert list(state.fwd[("S", 1)]) == ([transmitter] if admitted else [])

    def test_2_2_5_metric_tolerance_gates_admission(self):
        table = _table()
        qos = _qos(epsilon=0.1, actual={("a", "m"): 1.0, ("m", "v"): 1.0})
        state = make_state("m", table)
        rreq = _signed_rreq(table, ("a",), metric_list=(to_scaled(1.0),))
        fx = handle_rreq(state, rreq, "a", qos)
        relayed = _effects_of(Broadcast, fx)[0].msg
        base = relayed.metric_list
        ok = Rreq("S", "T", 1, rreq.auth, ("a", "m", "v"), base + (to_scaled(1.05),))
        observe_relay(state, ok, "v", qos)
        assert state.fwd[("S", 1)]["v"] == to_scaled(1.05)
        state.fwd[("S", 1)].clear()
        off = Rreq("S", "T", 1, rreq.auth, ("a", "m", "v"), base + (to_scaled(1.2),))
        observe_relay(state, off, "v", qos)
        assert "v" not in state.fwd[("S", 1)]

    def test_2_1_2_source_admits_first_hop(self):
        table = _table()
        state = _source_state_with_discovery(table)
        observe_relay(state, _signed_rreq(table, ("v",)), "v")
        assert "v" in state.fwd[("S", 1)]

    def test_3_reply_reverses_list_and_signs(self):
        table = _table()
        state = make_state("T", table)
        fx = handle_rreq(state, _signed_rreq(table, ("a", "b")), "b")
        (uc,) = _effects_of(Unicast, fx)
        assert uc.to == "b"
        assert uc.msg.route == ("b", "a")
        assert uc.msg.auth == table.ring("T").mac("S", ("S", "T", 1, ("b", "a")))
        assert ("S", 1) in state.seen

    def test_3_reply_single_hop_goes_straight_to_source(self):
        table = _table()
        state = make_state("T", table)
        fx = handle_rreq(state, _signed_rreq(table, ()), "S")
        (uc,) = _effects_of(Unicast, fx)
        assert uc.to == "S"
        assert uc.msg.route == ()

    def test_destination_answers_only_first_copy(self):
        table = _table()
        state = make_state("T", table)
        fx1 = handle_rreq(state, _signed_rreq(table, ("a",)), "a")
        assert _effects_of(Unicast, fx1)
        fx2 = handle_rreq(state, _signed_rreq(table, ("b",)), "b")
        assert not _effects_of(Unicast, fx2)


class TestReplyActions:
    def test_4_4_relays_to_predecessor(self):
        table = _table()
        state = make_state("m", table)
        state.fwd[("S", 1)] = {"b": None}
        rrep = _signed_rrep(table, ("b", "m", "a"))
        fx = process_rrep(state, rrep, "b", 4.0, CFG)
        (uc,) = _effects_of(Unicast, fx)
        assert uc.to == "a"
        assert uc.msg is rrep

    def test_4_4_last_intermediate_relays_to_source(self):
        table = _table()
        state = make_state("m", table)
        state.fwd[("S", 1)] = {"b": None}
        rrep = _signed_rrep(table, ("b", "m"))
        fx = process_rrep(state, rrep, "b", 4.0, CFG)
        (uc,) = _effects_of(Unicast, fx)
        assert uc.to == "S"

    def test_4_5_accepts_and_extracts_route(self):
        table = _table()
        state = _source_state_with_discovery(table)
        observe_relay(state, _signed_rreq(table, ("a",)), "a")
        rrep = _signed_rrep(table, ("b", "a"))
        fx = process_rrep(state, rrep, "a", 5.0, CFG)
        (acc,) = _effects_of(Accept, fx)
        assert acc.record.route == ("S", "a", "b", "T")
        assert acc.record.t1 == 1.0 and acc.record.t2 == 5.0
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
        fx = process_rrep(state, rrep, "T", 5.0, CFG)
        (acc,) = _effects_of(Accept, fx)
        assert acc.record.route == ("S", "T")


class TestFormatRules:
    def test_endpoint_in_node_list_is_rejected_everywhere(self):
        table = _table()
        rreq = _signed_rreq(table, ("T", "a"))
        for node in ("m", "T"):
            v = handle_rreq(make_state(node, table), rreq, "a")
            (note,) = [f for f in v if isinstance(f, Note)]
            assert note.outcome == "discard"
            assert note.detail == srp.ENDPOINT_IN_NODE_LIST.text

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
        fx = initiate_discovery(state, "T", 1.0, CFG)
        (bc,) = [f for f in fx if isinstance(f, Broadcast)]
        (tm,) = [f for f in fx if isinstance(f, ArmTimer)]
        assert bc.msg.qid == 1 and bc.msg.node_list == ()
        assert tm.at == 1.0 + CFG.reply_wait_min
        assert tm.tag == ("replywait", "T", 1)

    def test_discovery_without_shared_key_is_a_configuration_error(self):
        table = _table()
        state = make_state("S", table)
        with pytest.raises(ConfigurationError):
            initiate_discovery(state, "stranger", 1.0, CFG)

    def test_second_invocation_defers(self):
        table = _table()
        state = _source_state_with_discovery(table)
        fx = initiate_discovery(state, "T", 2.0, CFG)
        assert not [f for f in fx if isinstance(f, Broadcast)]
        assert state.deferred["T"] == 1

    def test_timeout_retries_with_doubled_timer_and_fresh_qid(self):
        table = _table()
        state = _source_state_with_discovery(table)
        fx = on_discovery_timer(state, "T", 1, 9.0, CFG)
        (bc,) = [f for f in fx if isinstance(f, Broadcast)]
        (tm,) = [f for f in fx if isinstance(f, ArmTimer)]
        assert bc.msg.qid == 2
        assert state.discoveries["T"].reply_wait == 16.0
        assert tm.at == 9.0 + 16.0

    def test_timer_updates_clamp_at_maximum(self):
        table = _table()
        state = make_state("S", table)
        initiate_discovery(state, "T", 0.0, CFG)
        now, qid = 0.0, 1
        for _ in range(6):
            disc = state.discoveries["T"]
            now = disc.t1 + disc.reply_wait
            on_discovery_timer(state, "T", qid, now, CFG)
            qid += 1
        assert state.discoveries["T"].reply_wait == CFG.reply_wait_max

    def test_acceptance_before_minimum_defers_conclusion(self):
        table = _table()
        state = _source_state_with_discovery(table)
        observe_relay(state, _signed_rreq(table, ("a",)), "a")
        fx = process_rrep(state, _signed_rrep(table, ("a",)), "a", 3.0, CFG)
        (tm,) = [f for f in fx if isinstance(f, ArmTimer)]
        assert tm.tag == ("conclude", "T", 1)
        assert tm.at == 1.0 + CFG.reply_wait_min
        assert state.discoveries["T"].accepted == 1

    def test_acceptance_after_minimum_concludes_immediately(self):
        table = _table()
        state = _source_state_with_discovery(table)
        observe_relay(state, _signed_rreq(table, ("a",)), "a")
        fx = process_rrep(state, _signed_rrep(table, ("a",)), "a", 20.0, CFG)
        assert "T" not in state.discoveries
        (note,) = [f for f in fx if isinstance(f, Note) and f.outcome == "conclude"]
        assert note.detail == "dst=T qid=1 accepted=1"

    @pytest.mark.parametrize("deferred", [False, True], ids=["direct", "deferred"])
    def test_discovery_after_a_conclusion_starts_at_the_minimum_timer(self, deferred):
        # qid 1 times out and qid 2 retries with a doubled timer; once qid 2
        # concludes, the next discovery toward T waits reply_wait_min again
        table = _table()
        state = _source_state_with_discovery(table)
        on_discovery_timer(state, "T", 1, 9.0, CFG)
        assert state.discoveries["T"].reply_wait == 2 * CFG.reply_wait_min
        if deferred:
            initiate_discovery(state, "T", 10.0, CFG)
        observe_relay(state, _signed_rreq(table, ("a",), qid=2), "a")
        fx = process_rrep(state, _signed_rrep(table, ("a",), qid=2), "a", 30.0, CFG)
        assert "conclude" in [f.outcome for f in fx if isinstance(f, Note)]
        now = 30.0
        if not deferred:
            now = 31.0
            fx = initiate_discovery(state, "T", now, CFG)
        (query,) = [f for f in fx if isinstance(f, Note) and f.outcome == "query"]
        (tm,) = [f for f in fx if isinstance(f, ArmTimer)]
        assert query.detail == f"dst=T qid=3 reply_wait={CFG.reply_wait_min!r}"
        assert tm.at == now + CFG.reply_wait_min and tm.tag == ("replywait", "T", 3)
        assert state.discoveries["T"].reply_wait == CFG.reply_wait_min

    def test_reply_after_conclusion_is_stale(self):
        table = _table()
        state = _source_state_with_discovery(table)
        observe_relay(state, _signed_rreq(table, ("a",)), "a")
        process_rrep(state, _signed_rrep(table, ("a",)), "a", 20.0, CFG)
        verdict = rrep_verdict(state, _signed_rrep(table, ("a",)), "a", None)
        assert verdict is srp.STALE_REPLY

    def test_conclusion_releases_deferred_invocation(self):
        table = _table()
        state = _source_state_with_discovery(table)
        initiate_discovery(state, "T", 2.0, CFG)
        observe_relay(state, _signed_rreq(table, ("a",)), "a")
        fx = process_rrep(state, _signed_rrep(table, ("a",)), "a", 20.0, CFG)
        bcs = [f for f in fx if isinstance(f, Broadcast)]
        assert len(bcs) == 1 and bcs[0].msg.qid == 2
        assert state.deferred["T"] == 0

    def _accepted_before_minimum(self, table, *relays):
        """qid 1, with one route accepted per relay in `relays` before
        reply_wait_min; returns the effects of each acceptance."""
        state = _source_state_with_discovery(table)
        fxs = []
        for t, relay in enumerate(relays, start=3):
            observe_relay(state, _signed_rreq(table, (relay,)), relay)
            fxs.append(process_rrep(state, _signed_rrep(table, (relay,)), relay, float(t), CFG))
        return state, fxs

    @pytest.mark.parametrize("first, second", [("conclude", "replywait"),
                                               ("replywait", "conclude")])
    def test_timer_of_an_accepting_discovery_concludes_once(self, first, second):
        table = _table()
        state, _ = self._accepted_before_minimum(table, "a")
        node, engine = SrpNode(state, CFG), _StepRecorder()
        node.on_timer(engine, (first, "T", 1), 9.0)
        assert engine.steps == [("conclude", "dst=T qid=1 accepted=1")]
        assert "T" not in state.discoveries
        node.on_timer(engine, (second, "T", 1), 9.0)
        assert engine.steps == [("conclude", "dst=T qid=1 accepted=1")]
        assert on_discovery_timer(state, "T", 1, 9.0, CFG) == []

    def test_second_acceptance_before_minimum_arms_no_second_timer(self):
        table = _table()
        state, (fx1, fx2) = self._accepted_before_minimum(table, "a", "b")
        assert [f.tag for f in fx1 if isinstance(f, ArmTimer)] == [("conclude", "T", 1)]
        assert _effects_of(Accept, fx2) and not _effects_of(ArmTimer, fx2)
        assert state.discoveries["T"].accepted == 2

    def test_timer_of_a_superseded_query_does_nothing(self):
        table = _table()
        state = _source_state_with_discovery(table)
        on_discovery_timer(state, "T", 1, 9.0, CFG)  # qid 1 retries as qid 2
        current = state.discoveries["T"]
        assert on_discovery_timer(state, "T", 1, 10.0, CFG) == []
        assert state.discoveries["T"] is current and current.qid == 2


class _StepRecorder:
    """An engine stand-in that records a node's trace steps and refuses any
    other effect."""

    def __init__(self):
        self.steps = []

    def trace_step(self, node, outcome, detail, msg=None):
        self.steps.append((outcome, detail))
