"""Independent checks of srpsim's outputs.

Every property here is recomputed from the scenario inputs (roster, link
up-intervals, actual metric values, adversary roster) and the records the
program returned.  Nothing here calls `srpsim.verifier` or
`harness.evaluate_expectations`: the point is a second implementation that
disagrees with the program when the program is wrong.

Each check returns a list of human-readable problems; an empty list is a pass.
"""

from __future__ import annotations

import math
from collections import deque

SCALE = 10 ** 6  # the wire's fixed-point metric unit (micro units)


def _edge(u, v):
    return (u, v) if u <= v else (v, u)


def up_map(scenario) -> dict:
    """edge -> list of half-open up intervals, straight from the inputs."""
    return {_edge(*s.edge): list(s.up_intervals) for s in scenario.links}


def _up_within(ups, u, v, t1, t2) -> bool:
    # up at some instant of the open discovery interval (t1, t2)
    return any(max(a, t1) < min(b, t2) for a, b in ups.get(_edge(u, v), ()))


def loop_free(route) -> bool:
    return len(set(route)) == len(route)


def fresh(route, ups, t1, t2) -> bool:
    return all(_up_within(ups, u, v, t1, t2) for u, v in zip(route, route[1:]))


def weakly_fresh(route, ups, t1, t2) -> bool:
    """Fresh outright, or one interior segment route[j..k] (1 <= j < k <= n-1)
    is bridged by a walk of links up within (t1, t2) while every link outside
    the segment is fresh.  Decided by reachability sets, not path search."""
    links_ok = [_up_within(ups, u, v, t1, t2) for u, v in zip(route, route[1:])]
    if all(links_ok):
        return True
    n = len(route) - 1
    adj: dict = {}
    for (u, v), ivs in ups.items():
        if any(max(a, t1) < min(b, t2) for a, b in ivs):
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
    for j in range(1, n):
        if not all(links_ok[:j]):
            break
        seen = {route[j]}
        todo = deque(seen)
        while todo:
            for y in adj.get(todo.popleft(), ()):
                if y not in seen:
                    seen.add(y)
                    todo.append(y)
        for k in range(j + 1, n):
            if all(links_ok[k:]) and route[k] in seen:
                return True
    return False


def metric_error(kind: str, actual: dict, route, reported_scaled):
    """|reported - actual| route metric and its bound n^2*eps + n*dtil
    (add, mul in the log domain) or n*eps + dtil (max, min).  Returns None when
    some link has no declared actual value (not evaluable)."""
    vals = []
    for u, v in zip(route, route[1:]):
        a = actual.get(_edge(u, v))
        if a is None:
            return None
        vals.append(float(a))
    rep = [m / SCALE for m in reported_scaled]
    if kind == "add":
        return abs(math.fsum(rep) - math.fsum(vals))
    if kind == "max":
        return abs(max(rep) - max(vals))
    if kind == "min":
        return abs(min(rep) - min(vals))
    if kind == "mul":
        if min(rep) <= 0:
            return math.inf
        return abs(math.fsum(math.log(x) for x in rep)
                   - math.fsum(math.log(x) for x in vals))
    raise ValueError(f"unknown aggregate {kind}")


def accuracy_bound(kind: str, n: int, eps: float, dtil: float) -> float:
    if kind in ("add", "mul"):
        return n * n * eps + n * dtil
    return n * eps + dtil


def _accuracy_problems(scenario, rec):
    m = scenario.metrics
    kind = m.kind.value
    n = len(rec.route) - 1
    if rec.reported is None or len(rec.reported) != n:
        return [f"route {rec.route}: reported metrics {rec.reported} do not "
                f"match its {n} links"]
    err = metric_error(kind, m.actual, rec.route, rec.reported)
    if err is None:
        return []
    bound = accuracy_bound(kind, n, m.epsilon, m.delta_tilde)
    if not err < bound:
        return [f"route {rec.route}: {kind} error {err} >= bound {bound}"]
    return []


def _endpoints_ok(scenario, rec):
    ends = {(s, d) for s, d, _ in scenario.discoveries}
    return (rec.route[0], rec.route[-1]) in ends


def check_campaign_run(scenario, records, independent: bool):
    """A fuzz or accuracy run: every accepted route joins a requested
    source/destination pair and is loop-free; under the independent class it
    is also fresh and, in augmented mode, accurate."""
    problems = []
    ups = up_map(scenario) if independent else None
    for rec in records:
        if not _endpoints_ok(scenario, rec):
            problems.append(f"route {rec.route} joins no requested pair")
        if not loop_free(rec.route):
            problems.append(f"route {rec.route} repeats a node")
        if independent:
            if not fresh(rec.route, ups, rec.t1, rec.t2):
                problems.append(f"route {rec.route} has a link never up in "
                                f"({rec.t1}, {rec.t2})")
            if scenario.metrics is not None:
                problems += _accuracy_problems(scenario, rec)
    return problems


def check_expect(scenario, records):
    """The scenario's own `expect` block, judged from the inputs alone.
    Routes with an adversarial end node are not judged on properties."""
    exp = scenario.expect
    problems = []
    n = len(records)
    if n < exp.get("min_accepted", 0):
        problems.append(f"{n} routes accepted, expected >= {exp['min_accepted']}")
    if "max_accepted" in exp and n > exp["max_accepted"]:
        problems.append(f"{n} routes accepted, expected <= {exp['max_accepted']}")
    ups = up_map(scenario)
    faulty = set(scenario.adversaries)
    judged = [r for r in records
              if r.route[0] not in faulty and r.route[-1] not in faulty]
    errors = []
    if scenario.metrics is not None:
        m = scenario.metrics
        for r in judged:
            if r.reported is None:
                continue
            err = metric_error(m.kind.value, m.actual, r.route, r.reported)
            if err is not None:
                bound = accuracy_bound(m.kind.value, len(r.route) - 1,
                                       m.epsilon, m.delta_tilde)
                errors.append((err, err < bound))
    props = {
        "loop_free": [loop_free(r.route) for r in judged],
        "fresh": [fresh(r.route, ups, r.t1, r.t2) for r in judged],
        "weakly_fresh": [weakly_fresh(r.route, ups, r.t1, r.t2) for r in judged],
        "accurate": [ok for _, ok in errors],
    }
    for prop, values in props.items():
        mode = exp.get(prop)
        if mode == "all" and not all(values):
            problems.append(f"{prop}: expected all, {values.count(False)} fail")
        elif mode == "not-all" and all(values):
            problems.append(f"{prop}: expected a violation, saw none")
        elif mode == "none" and any(values):
            problems.append(f"{prop}: expected none, {values.count(True)} hold")
    victim = exp.get("victim_link")
    if victim is not None:
        want = _edge(*victim)
        hits = sum(any(_edge(u, v) == want for u, v in zip(r.route, r.route[1:]))
                   for r in records)
        mode = exp.get("victim_link_accepted", "none")
        if (mode == "none") == (hits > 0):
            problems.append(f"victim link {victim}: {hits} routes, expected {mode}")
    cap = exp.get("max_metric_error")
    if cap is not None and any(err > cap for err, _ in errors):
        problems.append(f"metric error above {cap}")
    return problems


def check_grid(k: int, records, trace):
    """A k x k always-up grid with no adversary and one corner-to-corner
    discovery, judged from the geometry alone: every node but the destination
    broadcasts the query once (n - 1 `bcast_l` lines), each broadcast reaches
    every grid neighbour (2|E| - deg(T) broadcast deliveries), and at most one
    route is accepted: a loop-free walk of grid neighbours from S to T with at
    least 2k - 1 nodes.  A run may accept none: the reply can overtake the
    overheard relay that admits its sender to a forward list (see README)."""
    n = k * k
    edges = 2 * k * (k - 1)
    bcasts = sent_unicasts = received = 0
    for te in trace:
        if te.primitive == "bcast_l":
            bcasts += 1
        elif te.primitive == "send_l" and te.outcome == "sent":
            sent_unicasts += 1
        elif te.primitive == "receive_l":
            received += 1
    problems = []
    if bcasts != n - 1:
        problems.append(f"{bcasts} bcast_l lines, expected {n - 1}")
    if received - sent_unicasts != 2 * edges - 2:
        problems.append(f"{received - sent_unicasts} broadcast deliveries, "
                        f"expected {2 * edges - 2}")
    if len(records) != 1:
        return problems + ([f"{len(records)} routes accepted"] if records else [])
    route = records[0].route
    pos = [grid_pos(k, x) for x in route]
    if route[0] != "S" or route[-1] != "T":
        problems.append(f"route {route} does not run from S to T")
    if not loop_free(route):
        problems.append(f"route {route} repeats a node")
    if len(route) < 2 * k - 1:
        problems.append(f"route of {len(route)} nodes, shorter than {2 * k - 1}")
    if any(abs(a[0] - b[0]) + abs(a[1] - b[1]) != 1 for a, b in zip(pos, pos[1:])):
        problems.append(f"route {route} steps between non-neighbours")
    return problems


def grid_name(k: int, r: int, c: int) -> str:
    if (r, c) == (0, 0):
        return "S"
    if (r, c) == (k - 1, k - 1):
        return "T"
    return f"g{r:03d}_{c:03d}"


def grid_pos(k: int, name: str):
    if name == "S":
        return (0, 0)
    if name == "T":
        return (k - 1, k - 1)
    r, c = name[1:].split("_")
    return (int(r), int(c))
