"""Ground-truth property checks for accepted routes.

Every accepted route is judged against the link-schedule oracle and the
actual metric values, independently of anything the protocol computed:
loop-freedom (no repeated node), freshness (every route link up at some
instant of the discovery interval), weak freshness (one contiguous segment
may be replaced by a detour of recently-up links, the rest fresh), and
accuracy (reported route metric within the tolerance of the actual one).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

from .simcore import ScheduleMap
from .srp import RouteRecord
from .srp_qos import GKind, LinkMetricModel, delta_good, from_scaled, route_metric

import math


@dataclass
class Verdict:
    """Per-route result of all property checks."""

    route: tuple[str, ...]
    t1: float
    t2: float
    loop_free: bool
    fresh: bool
    weakly_fresh: bool
    never_up_links: tuple[tuple[str, str], ...]
    weak_witness: Optional[tuple[int, int, tuple[str, ...]]]
    accurate: Optional[bool] = None       # None: basic mode or not evaluable
    metric_error: Optional[float] = None
    delta_good_used: Optional[float] = None
    endpoints_faulty: bool = False


def check_loop_free(route: Sequence[str]) -> bool:
    """True iff the route repeats no node."""
    if not route:
        raise ValueError("empty route")
    return len(set(route)) == len(route)


def check_fresh(route: Sequence[str], schedules: ScheduleMap,
                t1: float, t2: float):
    """True iff every consecutive-pair link of the route was up at some
    instant of the open interval (t1, t2); also returns the failing links.
    A hop from a node to itself is no link, so it was never up."""
    if not t1 < t2:
        raise ValueError("need t1 < t2")
    never_up = [
        (u, v) for u, v in zip(route, route[1:])
        if u == v or not schedules.up_within(u, v, t1, t2)
    ]
    return not never_up, tuple(never_up)


def _detour(schedules: ScheduleMap, t1: float, t2: float,
            start: str, goal: str) -> Optional[tuple[str, ...]]:
    """A shortest path from start to goal over links up at some instant of
    (t1, t2); neighbours are visited in id order."""
    if start == goal:
        return (start,)
    prev = {start: None}
    q = deque([start])
    while q:
        x = q.popleft()
        for y, link in schedules.neighbours(x):
            if y not in prev and link.up_within(t1, t2):
                prev[y] = x
                if y == goal:
                    path = [y]
                    while prev[path[-1]] is not None:
                        path.append(prev[path[-1]])
                    return tuple(reversed(path))
                q.append(y)
    return None


def check_weakly_fresh(route: Sequence[str], schedules: ScheduleMap,
                       t1: float, t2: float):
    """Weak freshness: either the route is fresh outright, or one contiguous
    interior segment (j..k with 1 <= j < k <= n-1) can be replaced by a path
    of recently-up links while every link outside the segment is fresh.

    Returns (bool, witness); witness is (j, k, detour_path) when a segment
    substitution was needed, None for an outright-fresh route.  The search
    prefers the tightest segment (largest j, then smallest k).
    """
    if not t1 < t2:
        raise ValueError("need t1 < t2")
    link_fresh = [
        u != v and schedules.up_within(u, v, t1, t2) for u, v in zip(route, route[1:])
    ]
    if all(link_fresh):
        return True, None
    n = len(link_fresh)
    if n < 2:
        return False, None  # a single-link route has no interior segment
    for j in range(n - 1, 0, -1):               # j in [1, n-1], prefer late start
        if not all(link_fresh[:j]):
            continue
        for k in range(j + 1, n):               # k in (j, n-1]
            if not all(link_fresh[k:]):
                continue
            detour = _detour(schedules, t1, t2, route[j], route[k])
            if detour is not None:
                return True, (j, k, detour)
    return False, None


def check_accuracy(route: Sequence[str], reported_scaled: Sequence[int],
                   model: LinkMetricModel):
    """Compare the reported route metric against the aggregate of the actual
    link values.  Returns (accurate, metric_error, bound); accurate is None
    when some actual value is undeclared (not evaluable).

    For the product aggregate, the error and bound live in the log domain.
    """
    kind = model.kind
    n = len(route) - 1
    if n < 1:
        raise ValueError("route has no links")
    if len(reported_scaled) != n:
        raise ValueError("reported metric count does not match route links")
    bound = delta_good(kind, n, model.epsilon, model.delta_tilde)
    actual = []
    for u, v in zip(route, route[1:]):
        a = model.actual.get((u, v) if u <= v else (v, u))
        if a is None:
            return None, None, bound
        actual.append(a)
    try:
        reported = [from_scaled(m) for m in reported_scaled]
    except OverflowError:  # a value no float holds is beyond any bound
        return False, float("inf"), bound
    if kind == GKind.MUL:
        if any(m <= 0 for m in reported):
            return False, float("inf"), bound
        try:
            error = abs(math.log(route_metric(GKind.MUL, reported))
                        - math.log(route_metric(GKind.MUL, actual)))
        except (OverflowError, ValueError):  # a product beyond float range
            error = abs(sum(map(math.log, reported)) - sum(map(math.log, actual)))
    else:
        error = abs(route_metric(kind, reported) - route_metric(kind, actual))
    return error < bound, error, bound


def verdict_for(record: RouteRecord, schedules: ScheduleMap,
                model: Optional[LinkMetricModel] = None,
                faulty_endpoints: frozenset = frozenset()) -> Verdict:
    loop_free = check_loop_free(record.route)
    fresh, never_up = check_fresh(record.route, schedules, record.t1, record.t2)
    # only a route that is not fresh outright needs the detour search
    weakly, witness = (True, None) if fresh else \
        check_weakly_fresh(record.route, schedules, record.t1, record.t2)
    accurate = error = bound = None
    if model is not None and record.reported is not None:
        accurate, error, bound = check_accuracy(record.route, record.reported, model)
    return Verdict(
        route=tuple(record.route), t1=record.t1, t2=record.t2,
        loop_free=loop_free, fresh=fresh, weakly_fresh=weakly,
        never_up_links=never_up, weak_witness=witness,
        accurate=accurate, metric_error=error, delta_good_used=bound,
        endpoints_faulty=(record.route[0] in faulty_endpoints
                          or record.route[-1] in faulty_endpoints),
    )


def verdict_all(records: Sequence[RouteRecord], schedules: ScheduleMap,
                model: Optional[LinkMetricModel] = None,
                faulty_endpoints=frozenset()) -> list[Verdict]:
    """One verdict per accepted route; read-only over its inputs."""
    faulty_endpoints = frozenset(faulty_endpoints)
    return [verdict_for(r, schedules, model, faulty_endpoints) for r in records]


def summarize(verdicts: Sequence[Verdict], adversary_classes=()) -> dict:
    """Aggregate pass counts per property over non-faulty-endpoint routes,
    labeled with the adversary classes present in the run."""
    considered = [v for v in verdicts if not v.endpoints_faulty]
    return {
        "adversary_classes": sorted(adversary_classes),
        "routes": len(verdicts),
        "considered": len(considered),
        "loop_free": sum(v.loop_free for v in considered),
        "fresh": sum(v.fresh for v in considered),
        "weakly_fresh": sum(v.weakly_fresh for v in considered),
        "accurate": sum(1 for v in considered if v.accurate is True),
        "accuracy_evaluated": sum(1 for v in considered if v.accurate is not None),
    }
