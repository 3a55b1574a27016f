"""Deterministic discrete-event engine for the data-link layer.

Models broadcast and unicast within nominal radio range, link up/down
schedules, bounded per-delivery delay, promiscuous overhearing, delivery
failure reports, and the opaque multi-hop relay channel used by colluding
adversaries.  Topology is given entirely by explicit link schedules.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass
from typing import Iterable, Optional

from .identity import encode_fields


class InvalidEdgeError(ValueError):
    """A link operation named an impossible edge (e.g. a self-loop)."""


class OrderingError(RuntimeError):
    """An event was scheduled before the engine's current time."""


class ScheduleError(ValueError):
    """A link schedule violates the dwell-time or ordering rules."""


def edge_key(u: str, v: str) -> tuple[str, str]:
    if u == v:
        raise InvalidEdgeError(f"self edge ({u}, {v})")
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class SimConfig:
    """Engine-level constants for one run.

    tau bounds per-hop delivery latency; tx_time is the transmission window a
    link must stay up for.
    """

    tau: float = 1.0
    tx_time: float = 1.0
    end_time: float = 300.0
    seed: int = 1
    reply_wait_min: float = 16.0
    reply_wait_max: float = 256.0

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be > 0")
        if self.end_time <= 0:
            raise ValueError("end_time must be > 0")
        if self.tx_time <= 0:
            raise ValueError("tx_time must be > 0")
        if self.reply_wait_min <= 0 or self.reply_wait_max < self.reply_wait_min:
            raise ValueError("need 0 < reply_wait_min <= reply_wait_max")


@dataclass(frozen=True)
class LinkSchedule:
    """Half-open up intervals [a, b) for one undirected edge; ground truth
    for both delivery decisions and freshness verdicts."""

    edge: tuple[str, str]
    up_intervals: tuple[tuple[float, float], ...]

    def validate(self, tx_time: float) -> None:
        prev_end = None
        for a, b in self.up_intervals:
            if a < 0:
                raise ScheduleError(f"{self.edge}: interval [{a}, {b}) starts before time 0")
            if not a < b:
                raise ScheduleError(f"{self.edge}: empty interval [{a}, {b})")
            if b - a < tx_time:
                raise ScheduleError(
                    f"{self.edge}: up interval [{a}, {b}) shorter than one "
                    f"packet transmission time {tx_time}"
                )
            if prev_end is not None:
                if a < prev_end:
                    raise ScheduleError(f"{self.edge}: overlapping or unsorted intervals")
                if a - prev_end < tx_time:
                    raise ScheduleError(
                        f"{self.edge}: down gap before [{a}, {b}) shorter than "
                        f"one packet transmission time {tx_time}"
                    )
            prev_end = b

    def covers(self, t0: float, t1: float) -> bool:
        """Up throughout the closed window [t0, t1]."""
        return any(a <= t0 and t1 <= b for a, b in self.up_intervals)

    def up_within(self, t1: float, t2: float) -> bool:
        """Up at some instant of the open interval (t1, t2)."""
        return any(max(a, t1) < min(b, t2) for a, b in self.up_intervals)


class ScheduleMap:
    """All link schedules of a scenario; absent edges are permanently down."""

    def __init__(self, nodes: Iterable[str], schedules: Iterable[LinkSchedule]):
        self.nodes = tuple(nodes)
        known = set(self.nodes)
        self._by_edge: dict[tuple[str, str], LinkSchedule] = {}
        for s in schedules:
            u, v = s.edge
            if u not in known or v not in known:
                raise ScheduleError(f"schedule references undeclared node: {s.edge}")
            if s.edge in self._by_edge:
                raise ScheduleError(f"duplicate schedule for edge {s.edge}")
            self._by_edge[s.edge] = s
        # each node's links, sorted by neighbour id: the link layer walks
        # these instead of the whole roster, in the same order
        adjacent: dict[str, list[tuple[str, LinkSchedule]]] = {}
        for (u, v), s in self._by_edge.items():
            adjacent.setdefault(u, []).append((v, s))
            adjacent.setdefault(v, []).append((u, s))
        self._neighbours = {u: tuple(sorted(links, key=lambda x: x[0]))
                            for u, links in adjacent.items()}

    def neighbours(self, u: str) -> tuple[tuple[str, LinkSchedule], ...]:
        """(neighbour, schedule) for every edge at u, sorted by neighbour."""
        return self._neighbours.get(u, ())

    def validate(self, tx_time: float) -> None:
        for s in self._by_edge.values():
            s.validate(tx_time)

    def get(self, u: str, v: str) -> Optional[LinkSchedule]:
        return self._by_edge.get(edge_key(u, v))

    def covers(self, u: str, v: str, t0: float, t1: float) -> bool:
        s = self.get(u, v)
        return s is not None and s.covers(t0, t1)

    def up_within(self, u: str, v: str, t1: float, t2: float) -> bool:
        s = self.get(u, v)
        return s is not None and s.up_within(t1, t2)

    def edges(self) -> list[tuple[str, str]]:
        return sorted(self._by_edge)

    def boundaries(self) -> list[tuple[float, str, tuple[str, str]]]:
        out = []
        for e, s in sorted(self._by_edge.items()):
            for a, b in s.up_intervals:
                out.append((a, "up", e))
                out.append((b, "down", e))
        out.sort()
        return out


# Event kinds, ordered only by (time, seq).
DELIVER = "deliver"
LINK_CHANGE = "link_change"
TIMER_FIRE = "timer_fire"
NODE_ACTION = "node_action"


@dataclass(frozen=True)
class Event:
    time: float
    seq: int
    kind: str
    payload: tuple


class TraceEvent:
    """One line of the replayable run log."""

    __slots__ = ("time", "seq", "node", "primitive", "digest", "outcome", "detail")

    def __init__(self, time, seq, node, primitive, digest, outcome, detail):
        self.time = time
        self.seq = seq
        self.node = node
        self.primitive = primitive
        self.digest = digest
        self.outcome = outcome
        self.detail = detail

    def line(self) -> str:
        return (
            f"{self.time!r} {self.seq} {self.node} {self.primitive} "
            f"{self.digest} {self.outcome} {self.detail}"
        )

    def __repr__(self):
        return f"<TraceEvent {self.line()}>"


def message_digest(msg) -> str:
    """Short stable digest of a message for trace lines."""
    if msg is None:
        return "-"
    return hashlib.blake2b(encode_fields(msg.wire_fields()), digest_size=4).hexdigest()


@dataclass(frozen=True)
class TunnelChannel:
    """Private multi-hop relay path between two colluding nodes.

    Payloads are opaque to the relaying nodes; a hop succeeds only if its
    link is up throughout the hop's transmission window, so a successful
    crossing certifies that every path link was recently up.
    """

    owner: str
    peer: str
    path: tuple[str, ...]  # path[0] == owner, path[-1] == peer


class Engine:
    """Single-threaded deterministic event loop.

    All randomness (delivery delays) comes from the seeded generator, and
    simultaneous events are ordered by a monotone sequence number assigned at
    scheduling time, so a (scenario, seed) pair replays bit-identically.
    """

    def __init__(self, config: SimConfig, schedules: ScheduleMap, rng):
        self.config = config
        self.schedules = schedules
        self.rng = rng
        self.now = 0.0
        self.nodes: dict[str, object] = {}
        self.tunnels: dict[str, TunnelChannel] = {}
        self.trace: list[TraceEvent] = []
        self.accepted: list[tuple[str, object]] = []
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._delivery_seq = 0
        self._digests: dict = {}  # message -> message_digest, for this run
        self.noncompliant_deliveries: set[int] = set()
        self.adversary_emissions: list[tuple[str, object, str]] = []

    # -- wiring -----------------------------------------------------------

    def add_node(self, node_id: str, driver) -> None:
        self.nodes[node_id] = driver

    def add_tunnel(self, channel: TunnelChannel) -> None:
        self.tunnels[channel.owner] = channel

    def seed_link_changes(self) -> None:
        for t, state, edge in self.schedules.boundaries():
            if t <= self.config.end_time:
                self._push(t, LINK_CHANGE, (state, edge))

    def schedule_action(self, at: float, node: str, action: tuple) -> None:
        self._push(at, NODE_ACTION, (node, action))

    # -- scheduling -------------------------------------------------------

    def _push(self, at: float, kind: str, payload: tuple) -> Event:
        if at < self.now:
            raise OrderingError(f"event at {at} scheduled before current time {self.now}")
        self._seq += 1
        ev = Event(at, self._seq, kind, payload)
        heapq.heappush(self._queue, (at, self._seq, ev))
        return ev

    def _record(self, node, primitive, digest, outcome, detail="") -> None:
        self._seq += 1
        self.trace.append(
            TraceEvent(self.now, self._seq, node, primitive, digest, outcome, detail)
        )

    def _digest(self, msg) -> str:
        d = self._digests.get(msg)
        if d is None:
            d = self._digests[msg] = message_digest(msg)
        return d

    def _delay(self) -> float:
        # Uniform over (0, tau]: excludes zero-latency delivery.
        return self.config.tau * (1.0 - self.rng.random())

    # -- link-layer primitives (invoked by node drivers) -------------------

    def bcast_l(self, sender: str, msg) -> list[Event]:
        """Broadcast: one delivery per node whose link to the sender is up
        throughout the transmission window."""
        d = self._digest(msg)
        self._record(sender, "bcast_l", d, "sent")
        t0, t1 = self.now, self.now + self.config.tx_time
        out = []
        for v, link in self.schedules.neighbours(sender):
            if v in self.nodes and link.covers(t0, t1):
                self._delivery_seq += 1
                at = self.now + self._delay()
                out.append(self._push(at, DELIVER, (v, msg, sender, True, self._delivery_seq)))
        return out

    def send_l(self, sender: str, receiver: str, msg) -> bool:
        """Unicast to `receiver`; other up neighbors overhear the frame but do
        not process it as a protocol delivery.  Returns False and reports a
        delivery failure to the sender when the target link is not up for the
        whole transmission window."""
        if sender == receiver:
            raise InvalidEdgeError("a node cannot unicast to itself")
        d = self._digest(msg)
        t0, t1 = self.now, self.now + self.config.tx_time
        ok = self.schedules.covers(sender, receiver, t0, t1)
        self._record(sender, "send_l", d, "sent" if ok else "failure_reported", receiver)
        if ok:
            self._delivery_seq += 1
            self._push(self.now + self._delay(), DELIVER,
                       (receiver, msg, sender, True, self._delivery_seq))
        else:
            self._push(t1, NODE_ACTION, (sender, ("send_failure", msg, receiver)))
        # Promiscuous overhearing by third parties with an up link.
        for w, link in self.schedules.neighbours(sender):
            if w != receiver and w in self.nodes and link.covers(t0, t1):
                self._delivery_seq += 1
                self._push(self.now + self._delay(), DELIVER,
                           (w, msg, sender, False, self._delivery_seq))
        return ok

    def tunnel_send(self, owner: str, msg) -> bool:
        """Forward a payload along the owner's tunnel path; opaque to relays."""
        channel = self.tunnels.get(owner)
        if channel is None:
            raise RuntimeError(f"{owner} has no tunnel channel")
        d = self._digest(msg)
        t = self.now
        for a, b in zip(channel.path, channel.path[1:]):
            if not self.schedules.covers(a, b, t, t + self.config.tx_time):
                self._record(a, "tunnel", d, "dropped", f"hop {a}->{b} down")
                return False
            self._record(a, "tunnel", d, "sent", f"hop {a}->{b}")
            t += self.config.tau * (1.0 - self.rng.random())
        self._push(t, NODE_ACTION, (channel.peer, ("tunnel", msg, owner)))
        return True

    def arm_timer(self, node: str, at: float, tag: tuple) -> None:
        self._push(at, TIMER_FIRE, (node, tag))

    def accept_route(self, node: str, record) -> None:
        self.accepted.append((node, record))
        self._record(node, "step", "-", "accept",
                     "route=" + ",".join(record.route))

    def trace_step(self, node: str, outcome: str, detail: str, msg=None) -> None:
        self._record(node, "step", self._digest(msg), outcome, detail)

    def note_adversary_emission(self, node: str, msg, trigger: str) -> None:
        self.adversary_emissions.append((node, msg, trigger))

    # -- main loop ----------------------------------------------------------

    def run(self) -> list[TraceEvent]:
        while self._queue:
            at, _, ev = self._queue[0]
            if at > self.config.end_time:
                break
            heapq.heappop(self._queue)
            if at < self.now:
                raise OrderingError("event queue went backwards")
            self.now = at
            self._dispatch(ev)
        return self.trace

    def _dispatch(self, ev: Event) -> None:
        if ev.kind == DELIVER:
            node, msg, transmitter, addressed, delivery_id = ev.payload
            primitive = "receive_l" if addressed else "overhear"
            self._record(node, primitive, self._digest(msg), "delivered", transmitter)
            self.nodes[node].on_deliver(self, msg, transmitter, addressed,
                                        self.now, delivery_id)
        elif ev.kind == TIMER_FIRE:
            node, tag = ev.payload
            detail = ":".join(str(x) for x in tag if isinstance(x, (str, int, float)))
            self._record(node, "timer", "-", "fired", detail)
            self.nodes[node].on_timer(self, tag, self.now)
        elif ev.kind == NODE_ACTION:
            node, action = ev.payload
            kind = action[0]
            if kind == "initiate":
                self.nodes[node].on_action(self, action, self.now)
            elif kind == "tunnel":
                _, msg, frm = action
                self._record(node, "tunnel", self._digest(msg), "delivered", frm)
                self.nodes[node].on_tunnel(self, msg, frm, self.now)
            elif kind == "send_failure":
                _, msg, receiver = action
                self._record(node, "report", self._digest(msg),
                             "failure_reported", receiver)
                self.nodes[node].on_send_failure(self, msg, receiver, self.now)
            elif kind == "adversary_time":
                self.nodes[node].on_time(self, self.now)
            else:
                raise RuntimeError(f"unknown node action {kind}")
        elif ev.kind == LINK_CHANGE:
            state, edge = ev.payload
            self._record(edge[0], "link", "-", state, f"{edge[0]}-{edge[1]}")
        else:
            raise RuntimeError(f"unknown event kind {ev.kind}")

    # -- replay support -----------------------------------------------------

    def trace_digest(self) -> int:
        return trace_digest_of_lines(te.line() for te in self.trace)


def trace_digest_of_lines(lines: Iterable[str]) -> int:
    h = hashlib.blake2b(digest_size=8)
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return int.from_bytes(h.digest(), "big")
