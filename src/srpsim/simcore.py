"""Deterministic discrete-event engine for the data-link layer.

Models broadcast and unicast within nominal radio range, link up/down
schedules, bounded per-delivery delay, promiscuous overhearing, delivery
failure reports, and the opaque multi-hop relay channel used by colluding
adversaries.  Topology is given entirely by explicit link schedules.
"""

from __future__ import annotations

import bisect
import hashlib
import heapq
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Optional

from .identity import _encode_each, new_memo, remember
from .srp import WIRE_HEADER
from .trace import TraceView, trace_digest_of_lines


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
        for name in ("tau", "tx_time", "end_time", "reply_wait_min", "reply_wait_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.tau <= 0:
            raise ValueError("tau must be > 0")
        if self.end_time <= 0:
            raise ValueError("end_time must be > 0")
        if self.tx_time <= 0:
            raise ValueError("tx_time must be > 0")
        if self.reply_wait_min <= 0 or self.reply_wait_max < self.reply_wait_min:
            raise ValueError("need 0 < reply_wait_min <= reply_wait_max")
        if self.end_time + self.reply_wait_max == self.end_time:
            raise ValueError("reply_wait_max is too small to advance the clock at end_time")


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
        for a, b in self.up_intervals:
            if a <= t0 and t1 <= b:
                return True
        return False

    def up_within(self, t1: float, t2: float) -> bool:
        """Up at some instant of the open interval (t1, t2)."""
        return any(max(a, t1) < min(b, t2) for a, b in self.up_intervals)


class ScheduleMap:
    """All link schedules of a scenario; absent edges are permanently down.
    Read-only once built: `Scenario.schedule_map` shares one map among every
    scenario of the same roster and links, and engines read its lists in
    place."""

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
        # every interval boundary as (time, repr(time), rest of its trace
        # line after the seq), sorted by (time, "down" before "up", edge):
        # the order, and so the seq numbers, the engine gives the
        # link-change lines
        boundaries = sorted((t, state, e) for e, s in sorted(self._by_edge.items())
                            for a, b in s.up_intervals
                            for t, state in ((a, "up"), (b, "down")))
        self.link_changes = [(t, repr(t), f" {u} link - {state} {u}-{v}")
                             for t, state, (u, v) in boundaries]

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


# wire fields -> message digest, shared by every run in the process; emptied
# when it reaches DIGEST_MEMO_CAP entries.  Exact because the encoder takes
# exact values only (see identity._encode_each).  Engine._digests stays in
# front of it.
DIGEST_MEMO_CAP = 1 << 10
_DIGESTS: dict[tuple, str] = new_memo()
# query header (the first WIRE_HEADER wire fields) -> the opening of
# encode_fields(wire fields): its list tag and field count, then the header.
# A relay's message misses _DIGESTS but finds its query's header here.  The
# tag fixes the field count, so the opening depends on the key alone; exact
# as _DIGESTS is.  Emptied when it reaches HEADER_MEMO_CAP entries.
HEADER_MEMO_CAP = 1 << 10
_HEADERS: dict[tuple, bytes] = new_memo()


def _digest_of(data) -> str:
    return hashlib.blake2b(data, digest_size=4).hexdigest()


def _wire_bytes(fields: tuple) -> bytearray:
    """encode_fields(fields), the header's part taken from _HEADERS."""
    head = fields[:WIRE_HEADER]
    opening = _HEADERS.get(head)
    if opening is None:
        out = bytearray(b"l")
        out += len(fields).to_bytes(4, "big")
        _encode_each(head, out)
        opening = remember(_HEADERS, HEADER_MEMO_CAP, head, bytes(out))
    out = bytearray(opening)
    _encode_each(fields[WIRE_HEADER:], out)
    return out


def message_digest(msg) -> str:
    """Short stable digest of a message for trace lines."""
    if msg is None:
        return "-"
    fields = msg.wire_fields()
    digest = _DIGESTS.get(fields)
    if digest is None:
        digest = remember(_DIGESTS, DIGEST_MEMO_CAP, fields, _digest_of(_wire_bytes(fields)))
    return digest


_time = itemgetter(0)  # the time of a link change


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
        self.lines: list[str] = []
        self.trace = TraceView(self.lines)
        self.accepted: list = []  # RouteRecords, in acceptance order
        self._queue: list[tuple] = []  # (time, seq, Engine handler, args)
        self._seq = 0
        # the link changes not yet run are schedules.link_changes[i] for
        # _next_change <= i < _end_change, change i holding seq
        # _change_seq0 + i; run() merges them with the heap
        self._next_change = self._end_change = self._change_seq0 = 0
        # id(message) -> (message, message_digest): the entry keeps its
        # message alive, so the id is not reused within the run
        self._digests: dict[int, tuple[object, str]] = {}
        # each distinct `now` object is rendered once (by identity:
        # 0.0 == -0.0, but they print apart)
        self._rendered_now: object = None
        self._now_text = ""
        self.adversary_emissions: list[tuple[str, object]] = []

    # -- wiring -----------------------------------------------------------

    def add_node(self, node_id: str, driver) -> None:
        self.nodes[node_id] = driver

    def seed_link_changes(self) -> None:
        """Schedule every link change up to end_time, numbered after what is
        already queued.  The changes stay in the map's sorted list, which
        run() merges with the heap in (time, seq) order."""
        changes = self.schedules.link_changes
        n = bisect.bisect_right(changes, self.config.end_time, key=_time)
        if n and changes[0][0] < self.now:
            raise OrderingError(f"event at {changes[0][0]} scheduled before "
                                f"current time {self.now}")
        self._next_change, self._end_change = 0, n
        self._change_seq0 = self._seq + 1
        self._seq += n

    def schedule_action(self, at: float, node: str, action: tuple) -> None:
        self._push(at, Engine._act, (node, action))

    # -- scheduling -------------------------------------------------------

    def _push(self, at: float, handler, args: tuple) -> None:
        # handler is a plain Engine function, never a bound method: events
        # past end_time stay queued, and a bound method would tie the engine
        # into a reference cycle that only the cyclic collector frees
        if at < self.now:
            raise OrderingError(f"event at {at} scheduled before current time {self.now}")
        self._seq += 1
        heapq.heappush(self._queue, (at, self._seq, handler, args))

    def _record(self, node, primitive, digest, outcome, detail="") -> None:
        self._seq = seq = self._seq + 1
        now = self.now
        if now is not self._rendered_now:
            self._rendered_now = now
            self._now_text = repr(now)
        # the same text as TraceEvent.line()
        self.lines.append(
            f"{self._now_text} {seq} {node} {primitive} {digest} {outcome} {detail}"
        )

    def _digest(self, msg) -> str:
        hit = self._digests.get(id(msg))
        if hit is None:
            hit = self._digests[id(msg)] = (msg, message_digest(msg))
        return hit[1]

    def _delay(self) -> float:
        # Uniform over (0, tau]: excludes zero-latency delivery.
        return self.config.tau * (1.0 - self.rng.random())

    # -- link-layer primitives (invoked by node drivers) -------------------

    def bcast_l(self, sender: str, msg) -> None:
        """Broadcast: one delivery per node whose link to the sender is up
        throughout the transmission window."""
        d = self._digest(msg)
        self._record(sender, "bcast_l", d, "sent")
        self._fan_out(sender, msg, d, None)

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
            self._push(self.now + self._delay(), Engine._deliver,
                       (receiver, msg, sender, True, d))
        else:
            self._push(t1, Engine._record,
                       (sender, "report", d, "failure_reported", receiver))
        self._fan_out(sender, msg, d, receiver)  # promiscuous overhearing
        return ok

    def _fan_out(self, sender: str, msg, digest: str, receiver) -> None:
        """Queue a delivery of the frame to every node but `receiver` whose
        link to the sender is up throughout the transmission window:
        addressed for a broadcast (`receiver` None), overheard for a
        unicast.  Each push is `_push(now + _delay(), ...)` written out: the
        same delay draw and the same seq, in the same order."""
        now, nodes, seq = self.now, self.nodes, self._seq
        t1 = now + self.config.tx_time
        for v, link in self.schedules.neighbours(sender):
            if v != receiver and v in nodes and link.covers(now, t1):
                seq += 1
                heapq.heappush(self._queue, (
                    now + self.config.tau * (1.0 - self.rng.random()), seq,
                    Engine._deliver, (v, msg, sender, receiver is None, digest)))
        self._seq = seq

    def tunnel_send(self, path: tuple[str, ...], msg) -> bool:
        """Forward a payload along a private tunnel from its owner path[0]
        to its peer path[-1]; opaque to relays.  A hop succeeds only if its
        link is up throughout the hop's transmission window, so a successful
        crossing certifies that every path link was recently up."""
        d = self._digest(msg)
        t = self.now
        for a, b in zip(path, path[1:]):
            if not self.schedules.covers(a, b, t, t + self.config.tx_time):
                self._record(a, "tunnel", d, "dropped", f"hop {a}->{b} down")
                return False
            self._record(a, "tunnel", d, "sent", f"hop {a}->{b}")
            t += self._delay()
        self._push(t, Engine._tunnel_arrive, (path[-1], msg, path[0]))
        return True

    def arm_timer(self, node: str, at: float, tag: tuple) -> None:
        self._push(at, Engine._fire, (node, tag))

    def accept_route(self, node: str, record) -> None:
        self.accepted.append(record)
        self._record(node, "step", "-", "accept",
                     "route=" + ",".join(record.route))

    def trace_step(self, node: str, outcome: str, detail: str, msg=None) -> None:
        hit = self._digests.get(id(msg))
        if hit is None:
            hit = self._digests[id(msg)] = (msg, message_digest(msg))
        self._seq = seq = self._seq + 1
        now = self.now
        if now is not self._rendered_now:
            self._rendered_now = now
            self._now_text = repr(now)
        # as _record writes it, with _digest's look-up done in place
        self.lines.append(f"{self._now_text} {seq} {node} step {hit[1]} {outcome} {detail}")

    def note_adversary_emission(self, node: str, msg) -> None:
        self.adversary_emissions.append((node, msg))

    # -- main loop ----------------------------------------------------------

    def run(self) -> TraceView:
        queue, end_time, pop = self._queue, self.config.end_time, heapq.heappop
        changes, append, seq0 = self.schedules.link_changes, self.lines.append, self._change_seq0
        i, end = self._next_change, self._end_change
        while i < end:
            key = (changes[i][0], seq0 + i)
            while queue and queue[0] < key:  # seqs are unique: decided by [:2]
                self.now, _, handler, args = pop(queue)
                handler(self, *args)
            # changes i..j-1 sort before the heap's head.  Its seq is below
            # seq0 (queued before seed_link_changes) or past every change's,
            # so it follows all the changes at its time or none of them
            j = end
            if queue:
                t, head_seq = queue[0][:2]
                bound = bisect.bisect_right if head_seq > seq0 else bisect.bisect_left
                j = bound(changes, t, i + 1, end, key=_time)
            seq = self._seq
            for _, time_text, text in changes[i:j]:
                seq += 1
                append(f"{time_text} {seq}{text}")  # as _record writes it
            self._seq = seq
            self.now = changes[j - 1][0]
            self._next_change = i = j
        while queue and queue[0][0] <= end_time:
            self.now, _, handler, args = pop(queue)
            handler(self, *args)
        return self.trace

    # -- event handlers: what a heap entry names ------------------------------

    def _deliver(self, node, msg, transmitter, addressed, digest) -> None:
        self._seq = seq = self._seq + 1
        now = self.now
        if now is not self._rendered_now:
            self._rendered_now = now
            self._now_text = repr(now)
        primitive = "receive_l" if addressed else "overhear"
        # as _record writes it, with the digest the frame carries
        self.lines.append(f"{self._now_text} {seq} {node} {primitive} {digest} "
                          f"delivered {transmitter}")
        self.nodes[node].on_deliver(self, msg, transmitter, addressed, now)

    def _fire(self, node, tag) -> None:
        detail = ":".join(str(x) for x in tag if isinstance(x, (str, int, float)))
        self._record(node, "timer", "-", "fired", detail)
        self.nodes[node].on_timer(self, tag, self.now)

    def _tunnel_arrive(self, node, msg, frm) -> None:
        self._record(node, "tunnel", self._digest(msg), "delivered", frm)
        self.nodes[node].on_tunnel(self, msg, frm, self.now)

    def _act(self, node, action) -> None:
        self.nodes[node].on_action(self, action, self.now)

    # -- replay support -----------------------------------------------------

    def trace_digest(self) -> int:
        """Digest of the trace so far."""
        return trace_digest_of_lines(self.lines)

