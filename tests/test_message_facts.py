"""A route message's own facts, and the verdicts that read them.

`Rreq` and `Rrep` decide once, when built, what their own fields decide:
`form`, the first format rule they break; `loops`, whether their list
repeats a name; and, for a request, `query`, its (src, qid) key.  Production
`rreq_verdict` and `rrep_verdict` read these facts; the frozen verdicts of
`tests/reference_node.py` scan the message at every call.  The differential
tests below require both to return the same `RULES` object, in both modes,
on messages that break several format rules at once, from every position a
node can hold.  The facts are not fields, so a message with other facts is
still the same message on the wire and in a memo."""

import dataclasses
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import reference_node
from srpsim import (GKind, LinkMetricModel, QosRuntime, Rrep, Rreq, rrep_verdict,
                    rreq_verdict, srp, to_scaled)
from srpsim.simcore import message_digest

from conftest import make_state, make_table

KEYED = ("S", "T", "a", "m")
NAMES = KEYED + ("x",)  # x shares no key: a destination x has no key for its source
TABLE = make_table(*combinations(KEYED, 2))
QOS = QosRuntime(LinkMetricModel(kind=GKind.ADD, epsilon=0.1,
                                 actual={edge: 1.0 for edge in combinations(NAMES, 2)}), 1)
METRICS = (to_scaled(1.0), to_scaled(1.5))  # consistent with every link, and not
MODES = (None, QOS)  # basic, augmented

_names = st.sampled_from(NAMES)
_likely = st.sampled_from((True, True, False))


def _other_than(name):
    return [n for n in NAMES if n != name]


def _one_of(draw, values):
    return draw(st.sampled_from(tuple(values)))


def _ends(draw):
    """(src, dst), equal one time in four."""
    src = draw(_names)
    if draw(st.sampled_from((False, False, False, True))):
        return src, src
    return src, _one_of(draw, _other_than(src))


def _list(draw, src, dst):
    """A list of distinct intermediates, which may then get an end node, a
    repeated entry, or both, each at a drawn position (an empty list has
    nothing to repeat, and gets an end node instead)."""
    inner = [n for n in NAMES if n not in (src, dst)]
    names = draw(st.lists(st.sampled_from(inner), unique=True))
    for extra in ("endpoint", "repeat"):
        if draw(st.sampled_from((False, False, True))):
            pick = (src, dst) if extra == "endpoint" or not names else names
            names.insert(draw(st.integers(0, len(names))), _one_of(draw, pick))
    return tuple(names)


def _metrics(draw, qos, length):
    """The metric list of a mode: the right kind and length, one entry off,
    or the other mode's."""
    shape = draw(st.sampled_from(("right", "right", "off", "other-mode")))
    if (qos is None) == (shape != "other-mode"):
        return None
    if shape == "off":
        length = max(0, length + draw(st.sampled_from((-1, 1))))
    return tuple(draw(st.lists(st.sampled_from(METRICS), min_size=length, max_size=length)))


def _auth(draw, signer, peer, fields):
    """The authenticator `signer` computes for `peer`, or any number."""
    if signer in KEYED and peer in KEYED and signer != peer and draw(_likely):
        return TABLE[signer].mac(peer, fields)
    return draw(st.integers(0, 2 ** 64 - 1))


@st.composite
def rreq_cases(draw):
    """(state, request, transmitter, qos) at a relay or the destination,
    with the query seen or unseen."""
    qos = draw(st.sampled_from(MODES))
    (src, dst), qid = _ends(draw), draw(st.sampled_from((1, 2)))
    node_list = _list(draw, src, dst)
    rreq = Rreq(src, dst, qid, _auth(draw, src, dst, (src, dst, qid)), node_list,
                _metrics(draw, qos, len(node_list)))
    at_destination = draw(st.booleans())
    state = make_state(dst if at_destination else _one_of(draw, _other_than(dst)), TABLE)
    if draw(st.booleans()):
        state.seen.add((src, qid))
    precursor = node_list[-1] if node_list else src
    transmitter = draw(st.sampled_from((precursor, precursor) + NAMES))
    return state, rreq, transmitter, qos


@st.composite
def rrep_cases(draw):
    """(state, reply, forwarder, qos) at the source (with or without a
    current discovery), a relay on the route, a node off it, or the
    reply's generator."""
    qos = draw(st.sampled_from(MODES))
    (src, dst), qid = _ends(draw), draw(st.sampled_from((1, 2)))
    route = _list(draw, src, dst)
    metric_list = _metrics(draw, qos, len(route) + 1)
    fields = (src, dst, qid, route) + ((metric_list,) if qos is not None else ())
    rrep = Rrep(src, dst, qid, route, _auth(draw, dst, src, fields), metric_list)
    position = draw(st.sampled_from(("source", "on-route", "off-route", "generator")))
    if position == "on-route" and route:
        node = _one_of(draw, route)
        idx = route.index(node)
        successor, key = route[idx - 1] if idx > 0 else dst, (src, qid)
    elif position in ("off-route", "on-route"):
        node, successor, key = _one_of(draw, NAMES), dst, (src, qid)
    elif position == "generator":
        node, successor, key = dst, dst, (src, qid)
    else:
        node, successor, key = src, route[-1] if route else dst, (src, qid)
    state = make_state(node, TABLE)
    if position == "source" and state.keys.holds(dst) and draw(_likely):
        disc_qid = draw(st.sampled_from((1, 2)))
        state.discoveries[dst] = reference_node.Discovery(dst, disc_qid, 1.0, 8.0)
        key = (src, disc_qid)
    forwarder = draw(st.sampled_from((successor, successor) + NAMES))
    held = draw(st.sampled_from(("with", "with", "without", "absent")))
    if held != "absent":
        state.fwd[key] = {forwarder: None} if held == "with" else {}
    if qos is not None and draw(st.booleans()):
        state.prefix_metric[key] = draw(st.sampled_from(METRICS)) * draw(st.integers(1, 3))
    return state, rrep, forwarder, qos


@settings(max_examples=600, deadline=None)
@given(rreq_cases())
def test_request_verdict_is_the_reference_verdict(case):
    state, rreq, transmitter, qos = case
    assert (rreq_verdict(state, rreq, transmitter, qos)
            is reference_node.rreq_verdict(state, rreq, transmitter, qos))


@settings(max_examples=600, deadline=None)
@given(rrep_cases())
def test_reply_verdict_is_the_reference_verdict(case):
    state, rrep, forwarder, qos = case
    assert (rrep_verdict(state, rrep, forwarder, qos)
            is reference_node.rrep_verdict(state, rrep, forwarder, qos))


REQUEST = Rreq("S", "T", 1, 7, ("a", "m"))
REPLY = Rrep("S", "T", 1, ("m", "a"), 7)


@pytest.mark.parametrize("msg, change, form, loops", [
    (REQUEST, {"node_list": ("a", "T")}, srp.ENDPOINT_IN_NODE_LIST, False),
    (REQUEST, {"node_list": ("S", "a", "a")}, srp.ENDPOINT_IN_NODE_LIST, True),
    (REQUEST, {"node_list": ("m", "a", "m")}, None, True),
    (REQUEST, {"dst": "S"}, srp.SRC_EQUALS_DST, False),
    (REPLY, {"route": ("T", "m")}, srp.ENDPOINT_IN_ROUTE, False),
    (REPLY, {"route": ("a", "a")}, None, True),
    (REPLY, {"route": ("a",), "src": "T"}, srp.SRC_EQUALS_DST, False),
])
def test_a_replaced_message_gets_its_own_facts(msg, change, form, loops):
    assert (msg.form, msg.loops) == (None, False)
    other = dataclasses.replace(msg, **change)
    assert (other.form, other.loops) == (form, loops)
    assert (msg.form, msg.loops) == (None, False)


def test_a_replaced_request_gets_its_own_query():
    assert REQUEST.query == ("S", 1)
    assert dataclasses.replace(REQUEST, qid=2).query == ("S", 2)
    assert dataclasses.replace(REQUEST, src="a", node_list=("m",)).query == ("a", 1)


@pytest.mark.parametrize("msg", [REQUEST, REPLY], ids=["rreq", "rrep"])
def test_equality_hash_repr_and_wire_fields_ignore_the_facts(msg):
    facts = {"form", "loops", "query"}
    assert not facts & {f.name for f in dataclasses.fields(msg)}
    twin = type(msg)(*(getattr(msg, f.name) for f in dataclasses.fields(msg)))
    for name, value in (("form", srp.STALE_REPLY), ("loops", True), ("query", ("zz", 9))):
        object.__setattr__(twin, name, value)
    assert twin == msg and hash(twin) == hash(msg) and repr(twin) == repr(msg)
    assert not any(f"{name}=" in repr(msg) for name in facts)
    assert twin.wire_fields() == msg.wire_fields()
    assert message_digest(twin) == message_digest(msg)
