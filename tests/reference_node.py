"""A reference correct node, for differential tests of `srpsim.srp`.

This is the effect-returning act code of commit 97100ac, frozen: every step
returns a list of effects (broadcast, unicast, timer, accept, trace note),
and `execute` applies a list to the engine.  Two speed-ups are stated
plainly: `observe_relay` admits a relay by one tuple comparison, and
`execute` tells an effect by `isinstance`.  It states the protocol apart
from the production act code, which calls the engine's step methods in
place, so a change to the order or content of what production writes shows
as a difference.  Nothing here may come from production but the messages,
the route record, the `RULES` constants, `ConfigurationError`, `NodeState`,
`KeyRing` and `QosRuntime`; `tests/test_reference_node.py` enforces it.

`ReferenceSrpNode` is the correct-node driver as the composition of the step
functions, every effect through `execute`: a delivery runs `observe_relay`,
then `handle_rreq` or `process_rrep`; a timer runs `on_discovery_timer`; a
discovery action runs `initiate_discovery`.
"""

from __future__ import annotations

from dataclasses import dataclass

from srpsim.srp import (
    DEST_AUTH_MISMATCH, DEST_DUPLICATE, DEST_IDENTITY_LOOP, DEST_METRIC_LENGTH,
    DEST_NO_KEY, DEST_PRECURSOR_MISMATCH, ENDPOINT_IN_NODE_LIST, ENDPOINT_IN_ROUTE,
    ENDPOINT_METRIC_INCONSISTENT, METRIC_LIST_LENGTH, METRIC_LIST_MODE_MISMATCH,
    NOT_IN_FORWARD_LIST, NOT_ON_ROUTE, PREFIX_METRIC_MISMATCH, RELAY_DUPLICATE,
    RELAY_IDENTITY_LOOP, RELAY_METRIC_LENGTH, RELAY_PRECURSOR_MISMATCH,
    REPLY_AT_GENERATOR, REPLY_AUTH_MISMATCH, ROUTE_LOOP, SRC_EQUALS_DST, STALE_REPLY,
    SUCCESSOR_MISMATCH, ConfigurationError, NodeState, RouteRecord, Rrep, Rreq)

# the request checks a node's position picks: duplicate, precursor, loop, metric length
_AT_RELAY = (RELAY_DUPLICATE, RELAY_PRECURSOR_MISMATCH, RELAY_IDENTITY_LOOP, RELAY_METRIC_LENGTH)
_AT_DESTINATION = (DEST_DUPLICATE, DEST_PRECURSOR_MISMATCH, DEST_IDENTITY_LOOP, DEST_METRIC_LENGTH)


def _has_duplicates(seq) -> bool:
    return len(set(seq)) != len(seq)


# --------------------------------------------------------------------------
# Effects (executed by the driver against the engine)
# --------------------------------------------------------------------------

@dataclass(slots=True)
class Broadcast:
    msg: object


@dataclass(slots=True)
class Unicast:
    to: str
    msg: object


@dataclass(slots=True)
class ArmTimer:
    at: float
    tag: tuple


@dataclass(slots=True)
class Accept:
    record: RouteRecord


@dataclass(slots=True)
class Note:
    outcome: str
    detail: str
    msg: object = None


@dataclass
class Discovery:
    """Source-side record of one query attempt."""

    dst: str
    qid: int
    t1: float
    reply_wait: float
    accepted: int = 0  # routes accepted so far


# --------------------------------------------------------------------------
# Check phase
# --------------------------------------------------------------------------

def rreq_verdict(state: NodeState, rreq: Rreq, transmitter: str, qos):
    """Full compliance check for a received route request, from this node's
    position (intermediate or destination).  Returns None when compliant."""
    if rreq.src == rreq.dst:
        return SRC_EQUALS_DST
    if rreq.src in rreq.node_list or rreq.dst in rreq.node_list:
        # Accumulated entries are intermediate nodes; an end node in the list
        # makes the eventual route repeat a node.
        return ENDPOINT_IN_NODE_LIST
    if (rreq.metric_list is not None) != (qos is not None):
        return METRIC_LIST_MODE_MISMATCH
    at_destination = rreq.dst == state.self_id
    duplicate, precursor_mismatch, identity_loop, metric_length = (
        _AT_DESTINATION if at_destination else _AT_RELAY)
    if (rreq.src, rreq.qid) in state.seen:
        return duplicate
    expected = rreq.node_list[-1] if rreq.node_list else rreq.src
    if transmitter != expected:
        return precursor_mismatch
    if _has_duplicates(rreq.node_list) or state.self_id in rreq.node_list:
        return identity_loop
    if qos is not None and len(rreq.metric_list) != len(rreq.node_list):
        return metric_length
    if at_destination:
        if not state.keys.holds(rreq.src):
            return DEST_NO_KEY
        if state.keys.mac(rreq.src, (rreq.src, rreq.dst, rreq.qid)) != rreq.auth:
            return DEST_AUTH_MISMATCH
    return None


def rrep_verdict(state: NodeState, rrep: Rrep, forwarder: str, qos):
    """Full compliance check for a received route reply, from this node's
    position (querying node, on-route relay, or neither)."""
    route = rrep.route
    if rrep.src == rrep.dst:
        return SRC_EQUALS_DST
    if rrep.src in route or rrep.dst in route:
        return ENDPOINT_IN_ROUTE
    if qos is not None:
        if rrep.metric_list is None or len(rrep.metric_list) != len(route) + 1:
            return METRIC_LIST_LENGTH
    elif rrep.metric_list is not None:
        return METRIC_LIST_MODE_MISMATCH
    at_source = state.self_id == rrep.src
    if at_source:
        disc = state.discoveries.get(rrep.dst)
        if disc is None:
            return STALE_REPLY
        successor = route[-1] if route else rrep.dst
        key = (state.self_id, disc.qid)
    elif state.self_id == rrep.dst:
        # The reply generator never processes replies addressed from itself.
        return REPLY_AT_GENERATOR
    elif state.self_id not in route:
        return NOT_ON_ROUTE
    else:
        idx = route.index(state.self_id)
        successor = route[idx - 1] if idx > 0 else rrep.dst
        key = (rrep.src, rrep.qid)
    if forwarder != successor:
        return SUCCESSOR_MISMATCH
    if successor != rrep.dst:
        fl = state.fwd.get(key)
        if fl is None or forwarder not in fl:
            return NOT_IN_FORWARD_LIST
    if _has_duplicates(route):
        return ROUTE_LOOP
    if qos is not None and successor == rrep.dst:
        # The generator's predecessor (the querying node itself on a
        # single-link discovery) applies the endpoint metric tolerance.
        own = qos.measure_scaled(state.self_id, (state.self_id, rrep.dst))
        if not qos.consistent(own, rrep.metric_list[0]):
            return ENDPOINT_METRIC_INCONSISTENT
    if not at_source:
        stored = state.prefix_metric.get(key) if qos is not None else None
        if stored is not None:
            k = len(route) - idx  # number of links between the source and us
            segment = tuple(reversed(rrep.metric_list[len(rrep.metric_list) - k:]))
            if qos.aggregate_scaled(segment) != stored:
                return PREFIX_METRIC_MISMATCH
        return None
    # Authenticator is recomputed with the qid of the current discovery, so a
    # reply to any other query fails here no matter what it carries.
    fields = (rrep.src, rrep.dst, disc.qid, route)
    if qos is not None:
        fields = fields + (rrep.metric_list,)
    if state.keys.mac(rrep.dst, fields) != rrep.auth:
        return REPLY_AUTH_MISMATCH
    return None


# --------------------------------------------------------------------------
# Process phase (checks + state mutation + effects)
# --------------------------------------------------------------------------

def remember_broadcast(state: NodeState, rreq: Rreq, qos) -> None:
    """Record a request this node broadcasts: the query is seen, and the
    lists sent out are what a neighbour's relay must extend by one entry to
    join the (fresh, empty) forward list."""
    key = (rreq.src, rreq.qid)
    state.seen.add(key)
    state.relayed[key] = rreq
    state.fwd[key] = {}
    if qos is not None and rreq.metric_list:
        state.prefix_metric[key] = qos.aggregate_scaled(rreq.metric_list)


def _start_discovery(state: NodeState, dst: str, now: float, reply_wait: float, qos):
    qid = state.next_qid
    state.next_qid += 1
    auth = state.keys.mac(dst, (state.self_id, dst, qid))
    metric_list = () if qos is not None else None
    rreq = Rreq(state.self_id, dst, qid, auth, (), metric_list)
    state.discoveries[dst] = Discovery(dst=dst, qid=qid, t1=now, reply_wait=reply_wait)
    remember_broadcast(state, rreq, qos)
    return [
        Note("query", f"dst={dst} qid={qid} reply_wait={reply_wait!r}", rreq),
        Broadcast(rreq),
        ArmTimer(now + reply_wait, ("replywait", dst, qid)),
    ]


def initiate_discovery(state: NodeState, dst: str, now: float, cfg, qos=None):
    """Start (or defer) a route discovery toward dst."""
    if not state.keys.holds(dst):
        raise ConfigurationError(f"{state.self_id} shares no key with {dst}")
    if dst in state.discoveries:
        state.deferred[dst] = state.deferred.get(dst, 0) + 1
        return [Note("defer", f"discovery for {dst} already under way")]
    return _start_discovery(state, dst, now, cfg.reply_wait_min, qos)


def _conclude(state: NodeState, disc: Discovery, now: float, cfg, qos):
    del state.discoveries[disc.dst]
    fx = [Note("conclude", f"dst={disc.dst} qid={disc.qid} accepted={disc.accepted}")]
    if state.deferred.get(disc.dst, 0) > 0:
        state.deferred[disc.dst] -= 1
        fx += _start_discovery(state, disc.dst, now, cfg.reply_wait_min, qos)
    return fx


def on_discovery_timer(state: NodeState, dst: str, qid: int, now: float, cfg, qos=None):
    """A discovery's reply-wait or conclude timer: conclude the discovery if
    it has accepted a route, else retry with a doubled (clamped) reply wait.
    A timer of a discovery that is no longer current does nothing."""
    disc = state.discoveries.get(dst)
    if disc is None or disc.qid != qid:
        return []
    if disc.accepted:
        return _conclude(state, disc, now, cfg, qos)
    del state.discoveries[dst]
    rw = min(disc.reply_wait * 2, cfg.reply_wait_max)
    return [Note("retry", f"dst={dst} qid={qid} next_reply_wait={rw!r}")] + \
        _start_discovery(state, dst, now, rw, qos)


def observe_relay(state: NodeState, rreq: Rreq, transmitter: str, qos=None):
    """Forward-list maintenance: admit a neighbor heard relaying our exact
    request with itself appended (and, in augmented mode, with a link metric
    consistent with our own measurement of the shared link)."""
    key = (rreq.src, rreq.qid)
    sent = state.relayed.get(key)
    if sent is None:
        return []
    if rreq.node_list != sent.node_list + (transmitter,):
        return []
    step = "2.1.2" if state.self_id == rreq.src else "2.2.5"
    if qos is not None:
        if rreq.metric_list is None:
            return []
        base_m = sent.metric_list or ()
        if len(rreq.metric_list) != len(base_m) + 1 or rreq.metric_list[:-1] != base_m:
            return []
        appended = rreq.metric_list[-1]
        own = qos.measure_scaled(state.self_id, (state.self_id, transmitter))
        if state.self_id == rreq.src:
            step = "2.1.1"
        if not qos.consistent(own, appended):
            return [Note("fl-reject", f"{step} neighbor={transmitter}", rreq)]
        state.fwd[key][transmitter] = appended
    else:
        state.fwd[key][transmitter] = None
    return [Note("fl-add", f"{step} neighbor={transmitter}", rreq)]


def handle_rreq(state: NodeState, rreq: Rreq, transmitter: str, qos=None):
    """Check a request from this node's position, then act on it
    (`answer_rreq`).  A failed check is discarded with the rule id that
    fired."""
    if rreq.src == state.self_id:
        return []  # querying node: only forward-list observation applies
    verdict = rreq_verdict(state, rreq, transmitter, qos)
    if verdict is not None:
        return [Note("discard", verdict.text, rreq)]
    return answer_rreq(state, rreq, transmitter, qos)


def answer_rreq(state: NodeState, rreq: Rreq, transmitter: str, qos=None):
    """Act on a request that passed `rreq_verdict`: relay it with this node
    (and, in augmented mode, its own link metric) appended, or, at the
    destination, answer it with a signed reply."""
    metric_list = rreq.metric_list
    if qos is not None:
        own = qos.measure_scaled(state.self_id, (transmitter, state.self_id))
        metric_list += (own if own is not None else 0,)
    if rreq.dst != state.self_id:
        out = Rreq(rreq.src, rreq.dst, rreq.qid, rreq.auth,
                   rreq.node_list + (state.self_id,), metric_list)
        remember_broadcast(state, out, qos)
        return [Note("relay", "2.2.4", out), Broadcast(out)]
    state.seen.add((rreq.src, rreq.qid))
    route = tuple(reversed(rreq.node_list))
    fields = (rreq.src, rreq.dst, rreq.qid, route)
    if qos is not None:
        metric_list = tuple(reversed(metric_list))
        fields += (metric_list,)
    auth = state.keys.mac(rreq.src, fields)
    rrep = Rrep(rreq.src, rreq.dst, rreq.qid, route, auth, metric_list)
    target = route[0] if route else rreq.src
    return [Note("reply", f"3.2 to={target}", rrep), Unicast(target, rrep)]


def process_rrep(state: NodeState, rrep: Rrep, forwarder: str, now: float,
                 cfg, qos=None):
    """Check a reply from this node's position, then act on it
    (`answer_rrep`).  A failed check is discarded with the rule id that
    fired."""
    verdict = rrep_verdict(state, rrep, forwarder, qos)
    if verdict is not None:
        return [Note("discard", verdict.text, rrep)]
    return answer_rrep(state, rrep, forwarder, now, cfg, qos)


def answer_rrep(state: NodeState, rrep: Rrep, forwarder: str, now: float,
                cfg, qos=None):
    """Act on a reply that passed `rrep_verdict`: relay it toward the
    querying node, or accept it there (its authenticator has verified
    against the current query)."""
    if state.self_id == rrep.src:
        disc = state.discoveries[rrep.dst]
        full = (state.self_id,) + tuple(reversed(rrep.route)) + (rrep.dst,)
        reported = tuple(reversed(rrep.metric_list)) if qos is not None else None
        record = RouteRecord(route=full, t1=disc.t1, t2=now, qid=disc.qid,
                             reported=reported)
        disc.accepted += 1
        fx = [Note("accepted", "4.5", rrep), Accept(record)]
        min_conclude = disc.t1 + cfg.reply_wait_min
        if now >= min_conclude:
            fx += _conclude(state, disc, now, cfg, qos)
        elif disc.accepted == 1:  # the first acceptance arms the conclude timer
            fx.append(ArmTimer(min_conclude, ("conclude", disc.dst, disc.qid)))
        return fx
    idx = rrep.route.index(state.self_id)
    predecessor = rrep.route[idx + 1] if idx + 1 < len(rrep.route) else rrep.src
    return [Note("relay", f"4.4 to={predecessor}", rrep), Unicast(predecessor, rrep)]


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

def execute(engine, node: str, effects) -> None:
    """Apply one node's effects to the engine, in order."""
    for f in effects:
        if isinstance(f, Note):
            engine.trace_step(node, f.outcome, f.detail, f.msg)
        elif isinstance(f, Broadcast):
            engine.bcast_l(node, f.msg)
        elif isinstance(f, Unicast):
            engine.send_l(node, f.to, f.msg)
        elif isinstance(f, ArmTimer):
            engine.arm_timer(node, f.at, f.tag)
        elif isinstance(f, Accept):
            engine.accept_route(node, f.record)
        else:
            raise RuntimeError(f"unexpected effect {f!r} from {node}")


class ReferenceSrpNode:
    def __init__(self, state: NodeState, cfg, qos=None):
        self.state = state
        self.cfg = cfg
        self.qos = qos

    def on_deliver(self, engine, msg, transmitter, addressed, now):
        node = self.state.self_id
        if isinstance(msg, Rreq):
            execute(engine, node, observe_relay(self.state, msg, transmitter, self.qos))
            if addressed:
                execute(engine, node, handle_rreq(self.state, msg, transmitter, self.qos))
        elif isinstance(msg, Rrep) and addressed:
            execute(engine, node, process_rrep(self.state, msg, transmitter, now,
                                               self.cfg, self.qos))

    def on_timer(self, engine, tag, now):
        _, dst, qid = tag
        execute(engine, self.state.self_id,
                on_discovery_timer(self.state, dst, qid, now, self.cfg, self.qos))

    def on_action(self, engine, action, now):
        if action[0] == "initiate":
            execute(engine, self.state.self_id,
                    initiate_discovery(self.state, action[1], now, self.cfg, self.qos))

    def on_tunnel(self, engine, msg, frm, now):
        pass
