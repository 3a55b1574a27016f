"""Per-node state machine for secure on-demand route discovery.

Implements query generation, request relaying with precursor and loop checks,
overheard-relay tracking (the forward list that gates replies on the return
path), reply relaying and end-to-end authenticator verification, and the
reply-wait timer with retry/conclusion rules.  Every check is numbered with
its protocol rule id so a discard can be traced to the exact rule that fired.

The functions here are engine-agnostic: processing returns a list of effects
(broadcast, unicast, timer, accept, trace note) that a driver executes.  The
check phase is separated from the mutate phase so that adversary code can run
the exact same compliance checks in observer mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from .identity import KeyRing


class ConfigurationError(Exception):
    """A discovery was requested without the required end-node key."""


# --------------------------------------------------------------------------
# Messages
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Rreq:
    """Route request: flooded source->destination, accumulating the nodes it
    crossed.  metric_list is None in basic mode and runs parallel to
    node_list (fixed-point scaled integers) in augmented mode."""

    src: str
    dst: str
    qid: int
    auth: int
    node_list: tuple[str, ...] = ()
    metric_list: Optional[tuple[int, ...]] = None

    def wire_fields(self):
        return ("rreq", self.src, self.dst, self.qid, self.auth,
                self.node_list, self.metric_list)


@dataclass(frozen=True)
class Rrep:
    """Route reply: unicast back along `route`, which lists the intermediate
    nodes in reverse order (nearest-to-destination first) and never contains
    the end nodes themselves.  In augmented mode metric_list carries one
    entry per route link, reversed to match `route`."""

    src: str
    dst: str
    qid: int
    route: tuple[str, ...]
    auth: int
    metric_list: Optional[tuple[int, ...]] = None

    def wire_fields(self):
        return ("rrep", self.src, self.dst, self.qid, self.auth,
                self.route, self.metric_list)


@dataclass(frozen=True)
class RouteRecord:
    """A route accepted at the querying node: full node sequence including
    both end nodes, the query transmission time t1, the acceptance time t2,
    and the reported per-link metrics (scaled ints, source-to-destination
    order) when running augmented."""

    route: tuple[str, ...]
    t1: float
    t2: float
    qid: int
    reported: Optional[tuple[int, ...]] = None

    def links(self) -> list[tuple[str, str]]:
        return list(zip(self.route, self.route[1:]))


# --------------------------------------------------------------------------
# Discard bookkeeping
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Discard:
    """Why a message was dropped: the protocol rule id plus a stable code."""

    step: str
    code: str

    def __str__(self):
        return f"{self.step}:{self.code}"


FMT = "fmt"  # message format violations, checked before any numbered rule


def _has_duplicates(seq) -> bool:
    return len(set(seq)) != len(seq)


# --------------------------------------------------------------------------
# Effects (executed by node drivers against the engine)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Broadcast:
    msg: object


@dataclass(frozen=True)
class Unicast:
    to: str
    msg: object


@dataclass(frozen=True)
class ArmTimer:
    at: float
    tag: tuple


@dataclass(frozen=True)
class Accept:
    record: RouteRecord


@dataclass(frozen=True)
class TunnelSend:
    msg: object


@dataclass(frozen=True)
class Note:
    outcome: str
    detail: str
    msg: object = None


# --------------------------------------------------------------------------
# Node state
# --------------------------------------------------------------------------

@dataclass
class Discovery:
    """Source-side record of one query attempt."""

    dst: str
    qid: int
    t1: float
    reply_wait: float
    accepted: list[RouteRecord] = field(default_factory=list)
    concluded: bool = False
    conclude_at: Optional[float] = None


@dataclass
class NodeState:
    """Everything one node remembers across the run."""

    self_id: str
    keys: KeyRing
    seen: set = field(default_factory=set)               # {(src, qid)}
    fwd: dict = field(default_factory=dict)              # (src, qid) -> {neighbor: metric|None}
    relayed: dict = field(default_factory=dict)          # (src, qid) -> node_list we broadcast
    relayed_metrics: dict = field(default_factory=dict)  # (src, qid) -> metric_list we broadcast
    prefix_metric: dict = field(default_factory=dict)    # (src, qid) -> scaled prefix aggregate
    discoveries: dict = field(default_factory=dict)      # dst -> active Discovery
    deferred: dict = field(default_factory=dict)         # dst -> pending re-invocations
    last_reply_wait: dict = field(default_factory=dict)  # dst -> timer value to reuse
    next_qid: int = 1


# --------------------------------------------------------------------------
# Check phase (pure; shared verbatim with adversary compliance classification)
# --------------------------------------------------------------------------

def _rreq_format(rreq: Rreq, qos) -> Optional[Discard]:
    if rreq.src == rreq.dst:
        return Discard(FMT, "src-equals-dst")
    if rreq.src in rreq.node_list or rreq.dst in rreq.node_list:
        # Accumulated entries are intermediate nodes; an end node in the list
        # makes the eventual route repeat a node.
        return Discard(FMT, "endpoint-in-node-list")
    if (rreq.metric_list is not None) != (qos is not None):
        return Discard(FMT, "metric-list-mode-mismatch")
    return None


def _rrep_format(rrep: Rrep, qos) -> Optional[Discard]:
    if rrep.src == rrep.dst:
        return Discard(FMT, "src-equals-dst")
    if rrep.src in rrep.route or rrep.dst in rrep.route:
        return Discard(FMT, "endpoint-in-route")
    if qos is not None:
        if rrep.metric_list is None or len(rrep.metric_list) != len(rrep.route) + 1:
            return Discard(FMT, "metric-list-length")
    elif rrep.metric_list is not None:
        return Discard(FMT, "metric-list-mode-mismatch")
    return None


def rreq_verdict(state: NodeState, rreq: Rreq, transmitter: str, qos) -> Optional[Discard]:
    """Full compliance check for a received route request, from this node's
    position (intermediate or destination).  Returns None when compliant."""
    fmt = _rreq_format(rreq, qos)
    if fmt is not None:
        return fmt
    at_destination = rreq.dst == state.self_id
    prefix = "2.3" if at_destination else "2.2"
    if (rreq.src, rreq.qid) in state.seen:
        return Discard(prefix + ".1", "duplicate-query")
    expected = rreq.node_list[-1] if rreq.node_list else rreq.src
    if transmitter != expected:
        return Discard(prefix + ".2", "precursor-mismatch")
    if _has_duplicates(rreq.node_list) or state.self_id in rreq.node_list:
        return Discard(prefix + ".3", "identity-loop")
    if qos is not None and len(rreq.metric_list) != len(rreq.node_list):
        return Discard(prefix + ".4.a", "metric-length-mismatch")
    if at_destination:
        if not state.keys.holds(rreq.src):
            return Discard("2.3.4", "no-key")
        if state.keys.mac(rreq.src, (rreq.src, rreq.dst, rreq.qid)) != rreq.auth:
            return Discard("2.3.4", "auth-mismatch")
    return None


def rrep_verdict(state: NodeState, rrep: Rrep, forwarder: str, qos) -> Optional[Discard]:
    """Full compliance check for a received route reply, from this node's
    position (querying node, on-route relay, or neither)."""
    fmt = _rrep_format(rrep, qos)
    if fmt is not None:
        return fmt
    if state.self_id == rrep.src:
        return _rrep_verdict_at_source(state, rrep, forwarder, qos)
    if state.self_id == rrep.dst:
        # The reply generator never processes replies addressed from itself.
        return Discard(FMT, "reply-at-generator")
    if state.self_id not in rrep.route:
        return Discard(FMT, "not-on-route")
    return _rrep_verdict_on_route(state, rrep, forwarder, qos)


def _rrep_verdict_on_route(state, rrep, forwarder, qos) -> Optional[Discard]:
    route = rrep.route
    idx = route.index(state.self_id)
    successor = route[idx - 1] if idx > 0 else rrep.dst
    if forwarder != successor:
        return Discard("4.1", "successor-mismatch")
    key = (rrep.src, rrep.qid)
    if successor != rrep.dst:
        fl = state.fwd.get(key)
        if fl is None or forwarder not in fl:
            return Discard("4.2", "not-in-forward-list")
    if _has_duplicates(route):
        return Discard("4.3", "route-loop")
    if qos is not None:
        if successor == rrep.dst:
            own = qos.measure_scaled(state.self_id, (state.self_id, rrep.dst))
            if not qos.consistent(own, rrep.metric_list[0]):
                return Discard("4.2.1", "endpoint-metric-inconsistent")
        stored = state.prefix_metric.get(key)
        if stored is not None:
            k = len(route) - idx  # number of links between the source and us
            segment = tuple(reversed(rrep.metric_list[len(rrep.metric_list) - k:]))
            if qos.aggregate_scaled(segment) != stored:
                return Discard("4.2.2", "prefix-metric-mismatch")
    return None


def _rrep_verdict_at_source(state, rrep, forwarder, qos) -> Optional[Discard]:
    disc = state.discoveries.get(rrep.dst)
    if disc is None or disc.concluded:
        return Discard("5.2", "stale-reply")
    route = rrep.route
    successor = route[-1] if route else rrep.dst
    if forwarder != successor:
        return Discard("4.1", "successor-mismatch")
    if successor != rrep.dst:
        fl = state.fwd.get((state.self_id, disc.qid))
        if fl is None or forwarder not in fl:
            return Discard("4.2", "not-in-forward-list")
    if _has_duplicates(route):
        return Discard("4.3", "route-loop")
    if qos is not None and not route:
        # Single-link discovery: the querying node is the generator's
        # predecessor and applies the endpoint metric tolerance itself.
        own = qos.measure_scaled(state.self_id, (state.self_id, rrep.dst))
        if not qos.consistent(own, rrep.metric_list[0]):
            return Discard("4.2.1", "endpoint-metric-inconsistent")
    # Authenticator is recomputed with the qid of the current discovery, so a
    # reply to any other query fails here no matter what it carries.
    fields = (rrep.src, rrep.dst, disc.qid, route)
    if qos is not None:
        fields = fields + (rrep.metric_list,)
    if state.keys.mac(rrep.dst, fields) != rrep.auth:
        return Discard("4.5", "auth-mismatch")
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
    state.relayed[key] = rreq.node_list
    state.relayed_metrics[key] = rreq.metric_list if rreq.metric_list is not None else ()
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
    rw = state.last_reply_wait.get(dst, cfg.reply_wait_min)
    return _start_discovery(state, dst, now, rw, qos)


def _conclude(state: NodeState, disc: Discovery, now: float, cfg, qos):
    disc.concluded = True
    state.last_reply_wait[disc.dst] = cfg.reply_wait_min
    del state.discoveries[disc.dst]
    fx = [Note("conclude", f"dst={disc.dst} qid={disc.qid} accepted={len(disc.accepted)}")]
    if state.deferred.get(disc.dst, 0) > 0:
        state.deferred[disc.dst] -= 1
        fx += _start_discovery(state, disc.dst, now, cfg.reply_wait_min, qos)
    return fx


def on_replywait_timeout(state: NodeState, dst: str, qid: int, now: float, cfg, qos=None):
    """Reply-wait expiry: retry with a larger timer if nothing was accepted,
    conclude the discovery otherwise."""
    disc = state.discoveries.get(dst)
    if disc is None or disc.qid != qid or disc.concluded:
        return []
    if disc.accepted:
        return _conclude(state, disc, now, cfg, qos)
    del state.discoveries[dst]
    rw = min(disc.reply_wait * 2, cfg.reply_wait_max)
    state.last_reply_wait[dst] = rw
    return [Note("retry", f"dst={dst} qid={qid} next_reply_wait={rw!r}")] + \
        _start_discovery(state, dst, now, rw, qos)


def on_conclude_timer(state: NodeState, dst: str, qid: int, now: float, cfg, qos=None):
    disc = state.discoveries.get(dst)
    if disc is None or disc.qid != qid or disc.concluded or not disc.accepted:
        return []
    return _conclude(state, disc, now, cfg, qos)


def observe_relay(state: NodeState, rreq: Rreq, transmitter: str, qos=None):
    """Forward-list maintenance: admit a neighbor heard relaying our exact
    request with itself appended (and, in augmented mode, with a link metric
    consistent with our own measurement of the shared link)."""
    key = (rreq.src, rreq.qid)
    base = state.relayed.get(key)
    if base is None or rreq.node_list != base + (transmitter,):
        return []
    step = "2.1.2" if state.self_id == rreq.src else "2.2.5"
    if qos is not None:
        if rreq.metric_list is None:
            return []
        base_m = state.relayed_metrics.get(key, ())
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


def process_rreq_intermediate(state: NodeState, rreq: Rreq, transmitter: str,
                              now: float, qos=None):
    """Relay a compliant request with ourselves appended, or discard with the
    rule id that failed."""
    verdict = rreq_verdict(state, rreq, transmitter, qos)
    if verdict is not None:
        return [Note("discard", str(verdict), rreq)]
    metric_list = rreq.metric_list
    if qos is not None:
        own = qos.measure_scaled(state.self_id, (transmitter, state.self_id))
        metric_list = rreq.metric_list + (own if own is not None else 0,)
    out = replace(rreq, node_list=rreq.node_list + (state.self_id,),
                  metric_list=metric_list)
    remember_broadcast(state, out, qos)
    return [Note("relay", "2.2.4", out), Broadcast(out)]


def process_rreq_destination(state: NodeState, rreq: Rreq, transmitter: str,
                             now: float, qos=None):
    """Answer the first compliant copy of a query with a signed reply."""
    verdict = rreq_verdict(state, rreq, transmitter, qos)
    if verdict is not None:
        return [Note("discard", str(verdict), rreq)]
    state.seen.add((rreq.src, rreq.qid))
    route = tuple(reversed(rreq.node_list))
    metric_list = None
    fields = (rreq.src, rreq.dst, rreq.qid, route)
    if qos is not None:
        own = qos.measure_scaled(state.self_id, (transmitter, state.self_id))
        metric_list = tuple(reversed(rreq.metric_list + (own if own is not None else 0,)))
        fields = fields + (metric_list,)
    auth = state.keys.mac(rreq.src, fields)
    rrep = Rrep(rreq.src, rreq.dst, rreq.qid, route, auth, metric_list)
    target = route[0] if route else rreq.src
    return [Note("reply", f"3.2 to={target}", rrep), Unicast(target, rrep)]


def process_rrep(state: NodeState, rrep: Rrep, forwarder: str, now: float,
                 cfg, qos=None):
    """Relay a reply toward the querying node, or accept it there after the
    authenticator verifies against the current query."""
    verdict = rrep_verdict(state, rrep, forwarder, qos)
    if verdict is not None:
        return [Note("discard", str(verdict), rrep)]
    if state.self_id == rrep.src:
        disc = state.discoveries[rrep.dst]
        full = (state.self_id,) + tuple(reversed(rrep.route)) + (rrep.dst,)
        reported = tuple(reversed(rrep.metric_list)) if qos is not None else None
        record = RouteRecord(route=full, t1=disc.t1, t2=now, qid=disc.qid,
                             reported=reported)
        disc.accepted.append(record)
        fx = [Note("accepted", "4.5", rrep), Accept(record)]
        min_conclude = disc.t1 + cfg.reply_wait_min
        if now >= min_conclude:
            fx += _conclude(state, disc, now, cfg, qos)
        elif disc.conclude_at is None:
            disc.conclude_at = min_conclude
            fx.append(ArmTimer(min_conclude, ("conclude", disc.dst, disc.qid)))
        return fx
    idx = rrep.route.index(state.self_id)
    predecessor = rrep.route[idx + 1] if idx + 1 < len(rrep.route) else rrep.src
    return [Note("relay", f"4.4 to={predecessor}", rrep), Unicast(predecessor, rrep)]


def handle_rreq(state: NodeState, rreq: Rreq, transmitter: str, now: float, qos=None):
    if rreq.src == state.self_id:
        return []  # querying node: only forward-list observation applies
    if rreq.dst == state.self_id:
        return process_rreq_destination(state, rreq, transmitter, now, qos)
    return process_rreq_intermediate(state, rreq, transmitter, now, qos)


# --------------------------------------------------------------------------
# Engine drivers
# --------------------------------------------------------------------------

def execute(engine, node: str, effects) -> None:
    """Apply one node's effects to the engine, in order."""
    for f in effects:
        if isinstance(f, Broadcast):
            engine.bcast_l(node, f.msg)
        elif isinstance(f, Unicast):
            engine.send_l(node, f.to, f.msg)
        elif isinstance(f, ArmTimer):
            engine.arm_timer(node, f.at, f.tag)
        elif isinstance(f, Accept):
            engine.accept_route(node, f.record)
        elif isinstance(f, Note):
            engine.trace_step(node, f.outcome, f.detail, f.msg)
        elif isinstance(f, TunnelSend):
            engine.tunnel_send(node, f.msg)
        else:
            raise RuntimeError(f"unexpected effect {f!r} from {node}")


class SrpNode:
    """Correct-node driver: feeds deliveries and timers through the protocol
    functions and executes the resulting effects against the engine."""

    def __init__(self, state: NodeState, cfg, qos=None):
        self.state = state
        self.cfg = cfg
        self.qos = qos

    @property
    def node_id(self):
        return self.state.self_id

    def on_deliver(self, engine, msg, transmitter, addressed, now, delivery_id=0):
        fx = []
        if isinstance(msg, Rreq):
            fx += observe_relay(self.state, msg, transmitter, self.qos)
            if addressed:
                fx += handle_rreq(self.state, msg, transmitter, now, self.qos)
        elif isinstance(msg, Rrep) and addressed:
            fx += process_rrep(self.state, msg, transmitter, now, self.cfg, self.qos)
        execute(engine, self.node_id, fx)

    def on_timer(self, engine, tag, now):
        kind = tag[0]
        if kind == "replywait":
            fx = on_replywait_timeout(self.state, tag[1], tag[2], now, self.cfg, self.qos)
        elif kind == "conclude":
            fx = on_conclude_timer(self.state, tag[1], tag[2], now, self.cfg, self.qos)
        else:
            fx = []
        execute(engine, self.node_id, fx)

    def on_action(self, engine, action, now):
        if action[0] == "initiate":
            fx = initiate_discovery(self.state, action[1], now, self.cfg, self.qos)
            execute(engine, self.node_id, fx)

    def on_tunnel(self, engine, msg, frm, now):
        pass  # correct nodes have no private channel
