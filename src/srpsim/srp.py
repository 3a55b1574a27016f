"""Per-node state machine for secure on-demand route discovery.

Implements query generation, request relaying with precursor and loop checks,
overheard-relay tracking (the forward list that gates replies on the return
path), reply relaying and end-to-end authenticator verification, and the
reply-wait timer with retry/conclusion rules.  Every check is numbered with
its protocol rule id so a discard can be traced to the exact rule that fired.

A delivered message is checked, then acted on.  The check phase
(`rreq_verdict`, `rrep_verdict`) is pure, so adversary code runs the exact
same compliance checks in observer mode.  The act code calls the engine's
step methods (`trace_step`, `bcast_l`, `send_l`, `arm_timer`,
`accept_route`) itself: `receive_rreq` and `receive_rrep` check a delivery
and relay, reply, accept or discard it; `admit_relay` maintains the forward
list from every request heard; `begin_discovery` and `retry_or_conclude`
run a discovery action and a fired timer.  `SrpNode` drives them against the
engine.  The engine is a parameter of the act code, so a stand-in that logs
the calls can take its place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .identity import KeyRing


class ConfigurationError(Exception):
    """A discovery was requested without the required end-node key."""


# --------------------------------------------------------------------------
# Messages
# --------------------------------------------------------------------------

# Both messages' wire fields open with the same five scalars, the query
# header (tag, src, dst, qid, auth), and end with two lists.  A relay copies
# the header unchanged and appends only to the lists, so
# `simcore.message_digest` memoises the header's encoding.
WIRE_HEADER = 5


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


# --------------------------------------------------------------------------
# Rule registry: every verdict the checks can return, one constant per rule
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Discard:
    """Why a message was dropped: the protocol rule id plus a stable code.
    `text` is the form a trace line carries, rendered once."""

    step: str
    code: str
    text: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "text", f"{self.step}:{self.code}")


RULES = (  # in protocol order
    # message format violations, checked before any numbered rule
    SRC_EQUALS_DST := Discard("fmt", "src-equals-dst"),
    ENDPOINT_IN_NODE_LIST := Discard("fmt", "endpoint-in-node-list"),
    ENDPOINT_IN_ROUTE := Discard("fmt", "endpoint-in-route"),
    METRIC_LIST_MODE_MISMATCH := Discard("fmt", "metric-list-mode-mismatch"),
    METRIC_LIST_LENGTH := Discard("fmt", "metric-list-length"),
    REPLY_AT_GENERATOR := Discard("fmt", "reply-at-generator"),
    NOT_ON_ROUTE := Discard("fmt", "not-on-route"),
    # request checks at a relay (2.2.x) and at the destination (2.3.x)
    RELAY_DUPLICATE := Discard("2.2.1", "duplicate-query"),
    RELAY_PRECURSOR_MISMATCH := Discard("2.2.2", "precursor-mismatch"),
    RELAY_IDENTITY_LOOP := Discard("2.2.3", "identity-loop"),
    RELAY_METRIC_LENGTH := Discard("2.2.4.a", "metric-length-mismatch"),
    DEST_DUPLICATE := Discard("2.3.1", "duplicate-query"),
    DEST_PRECURSOR_MISMATCH := Discard("2.3.2", "precursor-mismatch"),
    DEST_IDENTITY_LOOP := Discard("2.3.3", "identity-loop"),
    DEST_METRIC_LENGTH := Discard("2.3.4.a", "metric-length-mismatch"),
    DEST_NO_KEY := Discard("2.3.4", "no-key"),
    DEST_AUTH_MISMATCH := Discard("2.3.4", "auth-mismatch"),
    # reply checks on the return path and at the querying node
    SUCCESSOR_MISMATCH := Discard("4.1", "successor-mismatch"),
    NOT_IN_FORWARD_LIST := Discard("4.2", "not-in-forward-list"),
    ROUTE_LOOP := Discard("4.3", "route-loop"),
    ENDPOINT_METRIC_INCONSISTENT := Discard("4.2.1", "endpoint-metric-inconsistent"),
    PREFIX_METRIC_MISMATCH := Discard("4.2.2", "prefix-metric-mismatch"),
    REPLY_AUTH_MISMATCH := Discard("4.5", "auth-mismatch"),
    STALE_REPLY := Discard("5.2", "stale-reply"),
)

# the request checks a node's position picks: duplicate, precursor, loop, metric length
_AT_RELAY = (RELAY_DUPLICATE, RELAY_PRECURSOR_MISMATCH, RELAY_IDENTITY_LOOP, RELAY_METRIC_LENGTH)
_AT_DESTINATION = (DEST_DUPLICATE, DEST_PRECURSOR_MISMATCH, DEST_IDENTITY_LOOP, DEST_METRIC_LENGTH)


def _has_duplicates(seq) -> bool:
    return len(set(seq)) != len(seq)


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
    accepted: int = 0  # routes accepted so far


@dataclass
class NodeState:
    """Everything one node remembers across the run."""

    self_id: str
    keys: KeyRing
    seen: set = field(default_factory=set)               # {(src, qid)}
    fwd: dict = field(default_factory=dict)              # (src, qid) -> {neighbor: metric|None}
    relayed: dict = field(default_factory=dict)          # (src, qid) -> Rreq we broadcast
    prefix_metric: dict = field(default_factory=dict)    # (src, qid) -> scaled prefix aggregate
    discoveries: dict = field(default_factory=dict)      # dst -> active Discovery
    deferred: dict = field(default_factory=dict)         # dst -> pending re-invocations
    next_qid: int = 1


# --------------------------------------------------------------------------
# Check phase (pure; shared verbatim with adversary compliance classification)
# --------------------------------------------------------------------------

def rreq_verdict(state: NodeState, rreq: Rreq, transmitter: str, qos) -> Optional[Discard]:
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


def rrep_verdict(state: NodeState, rrep: Rrep, forwarder: str, qos) -> Optional[Discard]:
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
# Act phase (checks + state mutation + calls to the engine's step methods)
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


def _send_query(engine, state: NodeState, dst: str, now: float, reply_wait: float, qos):
    node = state.self_id
    qid = state.next_qid
    state.next_qid += 1
    auth = state.keys.mac(dst, (node, dst, qid))
    metric_list = () if qos is not None else None
    rreq = Rreq(node, dst, qid, auth, (), metric_list)
    state.discoveries[dst] = Discovery(dst=dst, qid=qid, t1=now, reply_wait=reply_wait)
    remember_broadcast(state, rreq, qos)
    engine.trace_step(node, "query", f"dst={dst} qid={qid} reply_wait={reply_wait!r}", rreq)
    engine.bcast_l(node, rreq)
    engine.arm_timer(node, now + reply_wait, ("replywait", dst, qid))


def begin_discovery(engine, state: NodeState, dst: str, now: float, cfg, qos=None) -> None:
    """Start (or defer) a route discovery toward dst."""
    if not state.keys.holds(dst):
        raise ConfigurationError(f"{state.self_id} shares no key with {dst}")
    if dst in state.discoveries:
        state.deferred[dst] = state.deferred.get(dst, 0) + 1
        engine.trace_step(state.self_id, "defer", f"discovery for {dst} already under way")
        return
    _send_query(engine, state, dst, now, cfg.reply_wait_min, qos)


def _conclude(engine, state: NodeState, disc: Discovery, now: float, cfg, qos) -> None:
    del state.discoveries[disc.dst]
    engine.trace_step(state.self_id, "conclude",
                      f"dst={disc.dst} qid={disc.qid} accepted={disc.accepted}")
    if state.deferred.get(disc.dst, 0) > 0:
        state.deferred[disc.dst] -= 1
        _send_query(engine, state, disc.dst, now, cfg.reply_wait_min, qos)


def retry_or_conclude(engine, state: NodeState, dst: str, qid: int, now: float,
                      cfg, qos=None) -> None:
    """A discovery's reply-wait or conclude timer: conclude the discovery if
    it has accepted a route, else retry with a doubled (clamped) reply wait.
    A timer of a discovery that is no longer current does nothing."""
    disc = state.discoveries.get(dst)
    if disc is None or disc.qid != qid:
        return
    if disc.accepted:
        _conclude(engine, state, disc, now, cfg, qos)
        return
    del state.discoveries[dst]
    rw = min(disc.reply_wait * 2, cfg.reply_wait_max)
    engine.trace_step(state.self_id, "retry", f"dst={dst} qid={qid} next_reply_wait={rw!r}")
    _send_query(engine, state, dst, now, rw, qos)


def admit_relay(state: NodeState, rreq: Rreq, transmitter: str, qos=None):
    """Forward-list maintenance: admit a neighbor heard relaying our exact
    request with itself appended (and, in augmented mode, with a link metric
    consistent with our own measurement of the shared link).  Returns the
    outcome and detail of the step line a correct node writes, or None when
    the copy is no such relay."""
    key = (rreq.src, rreq.qid)
    sent = state.relayed.get(key)
    if sent is None:
        return None
    node_list = rreq.node_list
    # length and last hop first: most copies a node hears fail them, and
    # they build no tuple
    if (len(node_list) != len(sent.node_list) + 1 or node_list[-1] != transmitter
            or node_list != sent.node_list + (transmitter,)):
        return None
    step = "2.1.2" if state.self_id == rreq.src else "2.2.5"
    if qos is not None:
        if rreq.metric_list is None:
            return None
        base_m = sent.metric_list or ()
        if len(rreq.metric_list) != len(base_m) + 1 or rreq.metric_list[:-1] != base_m:
            return None
        appended = rreq.metric_list[-1]
        own = qos.measure_scaled(state.self_id, (state.self_id, transmitter))
        if state.self_id == rreq.src:
            step = "2.1.1"
        if not qos.consistent(own, appended):
            return "fl-reject", f"{step} neighbor={transmitter}"
        state.fwd[key][transmitter] = appended
    else:
        state.fwd[key][transmitter] = None
    return "fl-add", f"{step} neighbor={transmitter}"


def receive_rreq(engine, state: NodeState, rreq: Rreq, transmitter: str, qos=None) -> None:
    """Check a request from this node's position (`rreq_verdict`), then act
    on it: relay it with this node (and, in augmented mode, its own link
    metric) appended, or, at the destination, answer it with a signed reply.
    A failed check is discarded with the rule id that fired.  The querying
    node only observes its own query (`admit_relay`)."""
    node = state.self_id
    if rreq.src == node:
        return
    verdict = rreq_verdict(state, rreq, transmitter, qos)
    if verdict is not None:
        engine.trace_step(node, "discard", verdict.text, rreq)
        return
    metric_list = rreq.metric_list
    if qos is not None:
        own = qos.measure_scaled(node, (transmitter, node))
        metric_list += (own if own is not None else 0,)
    if rreq.dst != node:
        out = Rreq(rreq.src, rreq.dst, rreq.qid, rreq.auth,
                   rreq.node_list + (node,), metric_list)
        remember_broadcast(state, out, qos)
        engine.trace_step(node, "relay", "2.2.4", out)
        engine.bcast_l(node, out)
        return
    state.seen.add((rreq.src, rreq.qid))
    route = tuple(reversed(rreq.node_list))
    fields = (rreq.src, rreq.dst, rreq.qid, route)
    if qos is not None:
        metric_list = tuple(reversed(metric_list))
        fields += (metric_list,)
    auth = state.keys.mac(rreq.src, fields)
    rrep = Rrep(rreq.src, rreq.dst, rreq.qid, route, auth, metric_list)
    target = route[0] if route else rreq.src
    engine.trace_step(node, "reply", f"3.2 to={target}", rrep)
    engine.send_l(node, target, rrep)


def receive_rrep(engine, state: NodeState, rrep: Rrep, forwarder: str, now: float,
                 cfg, qos=None) -> None:
    """Check a reply from this node's position (`rrep_verdict`), then act on
    it: relay it toward the querying node, or accept it there (its
    authenticator has verified against the current query).  A failed check
    is discarded with the rule id that fired."""
    node = state.self_id
    verdict = rrep_verdict(state, rrep, forwarder, qos)
    if verdict is not None:
        engine.trace_step(node, "discard", verdict.text, rrep)
        return
    if node != rrep.src:
        idx = rrep.route.index(node)
        predecessor = rrep.route[idx + 1] if idx + 1 < len(rrep.route) else rrep.src
        engine.trace_step(node, "relay", f"4.4 to={predecessor}", rrep)
        engine.send_l(node, predecessor, rrep)
        return
    disc = state.discoveries[rrep.dst]
    full = (node,) + tuple(reversed(rrep.route)) + (rrep.dst,)
    reported = tuple(reversed(rrep.metric_list)) if qos is not None else None
    disc.accepted += 1
    engine.trace_step(node, "accepted", "4.5", rrep)
    engine.accept_route(node, RouteRecord(route=full, t1=disc.t1, t2=now, qid=disc.qid,
                                          reported=reported))
    min_conclude = disc.t1 + cfg.reply_wait_min
    if now >= min_conclude:
        _conclude(engine, state, disc, now, cfg, qos)
    elif disc.accepted == 1:  # the first acceptance arms the conclude timer
        engine.arm_timer(node, min_conclude, ("conclude", disc.dst, disc.qid))


# --------------------------------------------------------------------------
# Engine driver
# --------------------------------------------------------------------------

class SrpNode:
    """Correct-node driver: feeds deliveries, timers and discovery actions
    through the act code, which calls the engine's step methods itself."""

    def __init__(self, state: NodeState, cfg, qos=None):
        self.state = state
        self.cfg = cfg
        self.qos = qos

    def on_deliver(self, engine, msg, transmitter, addressed, now):
        state, qos = self.state, self.qos
        if isinstance(msg, Rreq):
            seen = admit_relay(state, msg, transmitter, qos)
            if seen is not None:
                engine.trace_step(state.self_id, *seen, msg)
            if addressed:  # else overheard: observe only
                receive_rreq(engine, state, msg, transmitter, qos)
        elif isinstance(msg, Rrep) and addressed:
            receive_rrep(engine, state, msg, transmitter, now, self.cfg, qos)

    def on_timer(self, engine, tag, now):
        _, dst, qid = tag  # ("replywait" | "conclude", dst, qid)
        retry_or_conclude(engine, self.state, dst, qid, now, self.cfg, self.qos)

    def on_action(self, engine, action, now):
        if action[0] == "initiate":
            begin_discovery(engine, self.state, action[1], now, self.cfg, self.qos)

    def on_tunnel(self, engine, msg, frm, now):
        pass  # correct nodes have no private channel
