"""Step-level conformance: every numbered protocol check fires on a minimal
counterexample with the matching rule id, and the action steps (append,
forward-list admission, reply generation, relay, acceptance) do what they
say."""

import pytest

from srpsim import (Accept, ArmTimer, Broadcast, ConfigurationError, Rrep,
                    Rreq, Unicast,
                    handle_rreq, initiate_discovery, observe_relay,
                    on_replywait_timeout, process_rrep,
                    process_rreq_destination, process_rreq_intermediate,
                    rrep_verdict, to_scaled)
from srpsim.srp import Note

from conftest import make_state
from step_cases import (CFG, DISCARD_CASES, _qos, _signed_rrep, _signed_rreq,
                        _source_state_with_discovery, _table)


@pytest.mark.parametrize("case", DISCARD_CASES, ids=lambda c: c.__name__)
def test_numbered_check_fires(case):
    verdict, step = case()
    assert verdict is not None, "counterexample was not rejected at all"
    assert verdict.step == step, f"rejected by {verdict} instead of rule {step}"


def _effects_of(kind, effects):
    return [f for f in effects if isinstance(f, kind)]


class TestRequestActions:
    def test_2_2_4_appends_self_and_rebroadcasts(self):
        table = _table()
        state = make_state("m", table)
        fx = process_rreq_intermediate(state, _signed_rreq(table, ("a",)), "a", 2.0)
        (bc,) = _effects_of(Broadcast, fx)
        assert bc.msg.node_list == ("a", "m")
        assert ("S", 1) in state.seen
        assert state.relayed[("S", 1)] == ("a", "m")
        assert state.fwd[("S", 1)] == {}

    def test_2_2_4_appends_own_link_metric(self):
        table = _table()
        qos = _qos(actual={("a", "m"): 1.5})
        state = make_state("m", table)
        rreq = _signed_rreq(table, ("a",), metric_list=(to_scaled(1.0),))
        fx = process_rreq_intermediate(state, rreq, "a", 2.0, qos)
        (bc,) = _effects_of(Broadcast, fx)
        assert bc.msg.metric_list == (to_scaled(1.0), to_scaled(1.5))
        # stored prefix covers both links (step 2.2.7)
        assert state.prefix_metric[("S", 1)] == to_scaled(2.5)

    def test_2_2_5_admits_exact_relay_only(self):
        table = _table()
        state = make_state("m", table)
        process_rreq_intermediate(state, _signed_rreq(table, ("a",)), "a", 2.0)
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

    def test_2_2_5_metric_tolerance_gates_admission(self):
        table = _table()
        qos = _qos(epsilon=0.1, actual={("a", "m"): 1.0, ("m", "v"): 1.0})
        state = make_state("m", table)
        rreq = _signed_rreq(table, ("a",), metric_list=(to_scaled(1.0),))
        fx = process_rreq_intermediate(state, rreq, "a", 2.0, qos)
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
        fx = process_rreq_destination(state, _signed_rreq(table, ("a", "b")), "b", 3.0)
        (uc,) = _effects_of(Unicast, fx)
        assert uc.to == "b"
        assert uc.msg.route == ("b", "a")
        assert uc.msg.auth == table.ring("T").mac("S", ("S", "T", 1, ("b", "a")))
        assert ("S", 1) in state.seen

    def test_3_reply_single_hop_goes_straight_to_source(self):
        table = _table()
        state = make_state("T", table)
        fx = process_rreq_destination(state, _signed_rreq(table, ()), "S", 3.0)
        (uc,) = _effects_of(Unicast, fx)
        assert uc.to == "S"
        assert uc.msg.route == ()

    def test_destination_answers_only_first_copy(self):
        table = _table()
        state = make_state("T", table)
        fx1 = process_rreq_destination(state, _signed_rreq(table, ("a",)), "a", 3.0)
        assert _effects_of(Unicast, fx1)
        fx2 = process_rreq_destination(state, _signed_rreq(table, ("b",)), "b", 3.5)
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
        assert state.discoveries["T"].accepted == [acc.record]

    def test_4_2_applies_at_source_too(self):
        table = _table()
        state = _source_state_with_discovery(table)
        rrep = _signed_rrep(table, ("b", "a"))
        verdict = rrep_verdict(state, rrep, "a", None)
        assert verdict is not None and verdict.step == "4.2"

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
            v = handle_rreq(make_state(node, table), rreq, "a", 2.0)
            (note,) = [f for f in v if isinstance(f, Note)]
            assert note.outcome == "discard" and "fmt" in note.detail

    def test_endpoint_in_route_is_rejected(self):
        table = _table()
        state = make_state("m", table)
        rrep = Rrep("S", "T", 1, ("T", "m"), 123, None)
        verdict = rrep_verdict(state, rrep, "T", None)
        assert verdict is not None and verdict.step == "fmt"

    def test_generator_never_relays_its_own_reply(self):
        table = _table()
        state = make_state("T", table)
        rrep = Rrep("S", "T", 1, ("m",), 123, None)
        verdict = rrep_verdict(state, rrep, "m", None)
        assert verdict is not None and verdict.step == "fmt"

    def test_off_route_node_rejects_reply(self):
        table = _table()
        state = make_state("w", table)
        rrep = _signed_rrep(table, ("b", "a"))
        verdict = rrep_verdict(state, rrep, "b", None)
        assert verdict is not None and verdict.step == "fmt"


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
        fx = on_replywait_timeout(state, "T", 1, 9.0, CFG)
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
            on_replywait_timeout(state, "T", qid, now, CFG)
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
        assert not state.discoveries["T"].concluded

    def test_acceptance_after_minimum_concludes_immediately(self):
        table = _table()
        state = _source_state_with_discovery(table)
        observe_relay(state, _signed_rreq(table, ("a",)), "a")
        fx = process_rrep(state, _signed_rrep(table, ("a",)), "a", 20.0, CFG)
        assert "T" not in state.discoveries
        assert state.last_reply_wait["T"] == CFG.reply_wait_min

    def test_reply_after_conclusion_is_stale(self):
        table = _table()
        state = _source_state_with_discovery(table)
        observe_relay(state, _signed_rreq(table, ("a",)), "a")
        process_rrep(state, _signed_rrep(table, ("a",)), "a", 20.0, CFG)
        verdict = rrep_verdict(state, _signed_rrep(table, ("a",)), "a", None)
        assert verdict is not None and verdict.step == "5.2"

    def test_conclusion_releases_deferred_invocation(self):
        table = _table()
        state = _source_state_with_discovery(table)
        initiate_discovery(state, "T", 2.0, CFG)
        observe_relay(state, _signed_rreq(table, ("a",)), "a")
        fx = process_rrep(state, _signed_rrep(table, ("a",)), "a", 20.0, CFG)
        bcs = [f for f in fx if isinstance(f, Broadcast)]
        assert len(bcs) == 1 and bcs[0].msg.qid == 2
        assert state.deferred["T"] == 0
