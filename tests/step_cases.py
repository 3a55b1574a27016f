"""Minimal counterexample messages for every numbered protocol check.

Each case builds the smallest state/message pair that makes exactly one rule
fire and returns the verdict together with the `srp.RULES` entry it must be.
The acceptance suite re-runs this table and requires it to cover every entry,
so keep cases self-contained.  The forward-list cases at the end reach the
returns of `admit_relay` that admit no neighbour.
"""

from srpsim import (LinkMetricModel, QosRuntime, Rrep,
                    Rreq, SimConfig, GKind, rreq_verdict, rrep_verdict, srp, to_scaled)
from srpsim.srp import admit_relay, begin_discovery, receive_rreq

from conftest import CallLog, make_state, make_table

CFG = SimConfig(tau=1.0, tx_time=1.0, end_time=100.0, seed=1,
                reply_wait_min=8.0, reply_wait_max=64.0)


def _table():
    return make_table(("S", "T"))


def _qos(epsilon=0.1, delta_tilde=0.0, actual=None):
    model = LinkMetricModel(kind=GKind.ADD, epsilon=epsilon,
                            delta_tilde=delta_tilde, actual=actual or {})
    return QosRuntime(model, 1)


def _signed_rreq(table, node_list=(), metric_list=None, qid=1):
    auth = table["S"].mac("T", ("S", "T", qid))
    return Rreq("S", "T", qid, auth, tuple(node_list), metric_list)


def _source_state_with_discovery(table, qos=None):
    """A querying node that just issued qid=1 at t=1."""
    state = make_state("S", table)
    begin_discovery(CallLog(), state, "T", 1.0, CFG, qos)
    return state


def _signed_rrep(table, route, metric_list=None, qid=1):
    fields = ("S", "T", qid, tuple(route))
    if metric_list is not None:
        fields = fields + (tuple(metric_list),)
    auth = table["T"].mac("S", fields)
    return Rrep("S", "T", qid, tuple(route), auth, metric_list)


# --- format counterexamples --------------------------------------------------

def case_fmt_src_equals_dst():
    table = _table()
    rreq = Rreq("S", "S", 1, 0, ("a",), None)
    return rreq_verdict(make_state("m", table), rreq, "a", None), srp.SRC_EQUALS_DST


def case_fmt_src_equals_dst_reply():
    table = _table()
    rrep = Rrep("S", "S", 1, ("m",), 123, None)
    return rrep_verdict(make_state("m", table), rrep, "S", None), srp.SRC_EQUALS_DST


def case_fmt_endpoint_in_node_list():
    table = _table()
    rreq = _signed_rreq(table, ("T", "a"))
    return rreq_verdict(make_state("m", table), rreq, "a", None), srp.ENDPOINT_IN_NODE_LIST


def case_fmt_endpoint_in_route():
    table = _table()
    rrep = Rrep("S", "T", 1, ("T", "m"), 123, None)
    return rrep_verdict(make_state("m", table), rrep, "T", None), srp.ENDPOINT_IN_ROUTE


def case_fmt_metric_list_mode_mismatch():
    # an augmented-mode request reaching a basic-mode node
    table = _table()
    rreq = _signed_rreq(table, ("a",), metric_list=(to_scaled(1.0),))
    return rreq_verdict(make_state("m", table), rreq, "a", None), srp.METRIC_LIST_MODE_MISMATCH


def case_fmt_metric_list_mode_mismatch_reply():
    # an augmented-mode reply reaching a basic-mode node
    table = _table()
    rrep = _signed_rrep(table, ("m",), metric_list=(to_scaled(1.0), to_scaled(1.0)))
    return rrep_verdict(make_state("m", table), rrep, "T", None), srp.METRIC_LIST_MODE_MISMATCH


def case_fmt_metric_list_length():
    # an augmented-mode reply with one metric too few for its links
    table = _table()
    rrep = _signed_rrep(table, ("m", "a"), metric_list=(to_scaled(1.0), to_scaled(1.0)))
    return rrep_verdict(make_state("m", table), rrep, "T", _qos()), srp.METRIC_LIST_LENGTH


def case_fmt_reply_at_generator():
    table = _table()
    rrep = Rrep("S", "T", 1, ("m",), 123, None)
    return rrep_verdict(make_state("T", table), rrep, "m", None), srp.REPLY_AT_GENERATOR


def case_fmt_not_on_route():
    table = _table()
    rrep = _signed_rrep(table, ("b", "a"))
    return rrep_verdict(make_state("w", table), rrep, "b", None), srp.NOT_ON_ROUTE


# --- request-side counterexamples ------------------------------------------

def case_2_2_1():
    table = _table()
    state = make_state("m", table)
    state.seen.add(("S", 1))
    return rreq_verdict(state, _signed_rreq(table, ("a",)), "a", None), srp.RELAY_DUPLICATE


def case_2_2_2():
    table = _table()
    state = make_state("m", table)
    rreq = _signed_rreq(table, ("a", "b"))
    return rreq_verdict(state, rreq, "c", None), srp.RELAY_PRECURSOR_MISMATCH


def case_2_2_3():
    table = _table()
    state = make_state("m", table)
    rreq = _signed_rreq(table, ("a", "b", "a"))
    return rreq_verdict(state, rreq, "a", None), srp.RELAY_IDENTITY_LOOP


def case_2_2_3_self_present():
    table = _table()
    state = make_state("m", table)
    rreq = _signed_rreq(table, ("m", "b"))
    return rreq_verdict(state, rreq, "b", None), srp.RELAY_IDENTITY_LOOP


def case_2_2_4_a():
    table = _table()
    state = make_state("m", table)
    rreq = _signed_rreq(table, ("a",), metric_list=(to_scaled(1.0), to_scaled(2.0)))
    return rreq_verdict(state, rreq, "a", _qos()), srp.RELAY_METRIC_LENGTH


def case_2_3_1():
    table = _table()
    state = make_state("T", table)
    state.seen.add(("S", 1))
    return rreq_verdict(state, _signed_rreq(table, ("a",)), "a", None), srp.DEST_DUPLICATE


def case_2_3_2():
    table = _table()
    state = make_state("T", table)
    return rreq_verdict(state, _signed_rreq(table, ("a",)), "b", None), srp.DEST_PRECURSOR_MISMATCH


def case_2_3_3():
    table = _table()
    state = make_state("T", table)
    rreq = _signed_rreq(table, ("a", "b", "a"))
    return rreq_verdict(state, rreq, "a", None), srp.DEST_IDENTITY_LOOP


def case_2_3_4_a():
    table = _table()
    state = make_state("T", table)
    rreq = _signed_rreq(table, ("a",), metric_list=())
    return rreq_verdict(state, rreq, "a", _qos()), srp.DEST_METRIC_LENGTH


def case_2_3_4_no_key():
    # the destination shares no key with the querying node
    state = make_state("T", make_table())
    rreq = Rreq("S", "T", 1, 0, ("a",), None)
    return rreq_verdict(state, rreq, "a", None), srp.DEST_NO_KEY


def case_2_3_4_auth():
    table = _table()
    state = make_state("T", table)
    good = _signed_rreq(table, ("a",))
    bad = Rreq("S", "T", 1, good.auth ^ 1, good.node_list, None)
    return rreq_verdict(state, bad, "a", None), srp.DEST_AUTH_MISMATCH


# --- reply-side counterexamples ---------------------------------------------

def case_4_1():
    table = _table()
    state = make_state("m", table)
    rrep = _signed_rrep(table, ("b", "m", "a"))
    # m's successor along the route is b, but c forwards it
    return rrep_verdict(state, rrep, "c", None), srp.SUCCESSOR_MISMATCH


def case_4_2():
    table = _table()
    state = make_state("m", table)
    rrep = _signed_rrep(table, ("b", "m", "a"))
    # right forwarder, but b was never overheard relaying our query
    return rrep_verdict(state, rrep, "b", None), srp.NOT_IN_FORWARD_LIST


def case_4_3():
    table = _table()
    state = make_state("m", table)
    state.fwd[("S", 1)] = {"b": None}
    rrep = _signed_rrep(table, ("b", "m", "a", "b"))
    return rrep_verdict(state, rrep, "b", None), srp.ROUTE_LOOP


def case_4_2_1():
    table = _table()
    qos = _qos(actual={("m", "T"): 1.0})
    state = make_state("m", table)
    # T reports 2.0 for the shared link, our own reading is 1.0
    rrep = _signed_rrep(table, ("m", "a"),
                        metric_list=(to_scaled(2.0), to_scaled(1.0), to_scaled(1.0)))
    return rrep_verdict(state, rrep, "T", qos), srp.ENDPOINT_METRIC_INCONSISTENT


def case_4_2_2():
    table = _table()
    qos = _qos(actual={("m", "T"): 1.0})
    state = make_state("m", table)
    state.fwd[("S", 1)] = {"T": None}
    # our stored prefix covers the two links behind us and disagrees with
    # what the reply reports for them
    state.prefix_metric[("S", 1)] = to_scaled(2.0)
    rrep = _signed_rrep(
        table, ("m", "b", "a"),
        metric_list=(to_scaled(1.0), to_scaled(1.0), to_scaled(1.0), to_scaled(1.5)))
    return rrep_verdict(state, rrep, "T", qos), srp.PREFIX_METRIC_MISMATCH


def case_4_5():
    table = _table()
    state = _source_state_with_discovery(table)
    admit_relay(state, _signed_rreq(table, ("a",)), "a", None)
    good = _signed_rrep(table, ("a",))
    bad = Rrep("S", "T", 1, good.route, good.auth ^ 1, None)
    return rrep_verdict(state, bad, "a", None), srp.REPLY_AUTH_MISMATCH


def case_4_5_stale_qid():
    # a reply for another query id fails the authenticator recomputed with
    # the current one
    table = _table()
    state = _source_state_with_discovery(table)
    admit_relay(state, _signed_rreq(table, ("a",)), "a", None)
    stale = _signed_rrep(table, ("a",), qid=7)
    return rrep_verdict(state, stale, "a", None), srp.REPLY_AUTH_MISMATCH


def case_5_2():
    table = _table()
    state = make_state("S", table)  # no discovery under way
    rrep = _signed_rrep(table, ("a",))
    return rrep_verdict(state, rrep, "a", None), srp.STALE_REPLY


DISCARD_CASES = [
    case_fmt_src_equals_dst, case_fmt_src_equals_dst_reply,
    case_fmt_endpoint_in_node_list, case_fmt_endpoint_in_route,
    case_fmt_metric_list_mode_mismatch, case_fmt_metric_list_mode_mismatch_reply,
    case_fmt_metric_list_length,
    case_fmt_reply_at_generator, case_fmt_not_on_route,
    case_2_2_1, case_2_2_2, case_2_2_3, case_2_2_3_self_present, case_2_2_4_a,
    case_2_3_1, case_2_3_2, case_2_3_3, case_2_3_4_a, case_2_3_4_no_key, case_2_3_4_auth,
    case_4_1, case_4_2, case_4_3, case_4_2_1, case_4_2_2,
    case_4_5, case_4_5_stale_qid, case_5_2,
]


# --- forward-list counterexamples: admit_relay admits no neighbour ----------
#
# Each case returns (what admit_relay returns, the forward list after it),
# on a forward list that was empty before it.

def case_fl_augmented_relay_without_metric_list():
    # m relayed an augmented-mode request; v's copy extends m's node list by
    # itself but carries no metric list
    table = _table()
    qos = _qos(actual={("a", "m"): 1.0, ("m", "v"): 1.0})
    state = make_state("m", table)
    receive_rreq(CallLog(), state, _signed_rreq(table, ("a",), metric_list=(to_scaled(1.0),)),
                 "a", qos)
    assert state.fwd[("S", 1)] == {}
    heard = _signed_rreq(table, ("a", "m", "v"))
    return admit_relay(state, heard, "v", qos), state.fwd[("S", 1)]


NO_ADMISSION_CASES = [case_fl_augmented_relay_without_metric_list]
