"""Adversarial node behaviors: the two adversary classes, a library of named
attack scripts covering the known maneuvers against route discovery, and a
seeded random script generator for property-hunting campaigns.

Independent adversaries may store, replay, modify, or forward only messages
they cannot detect as protocol-non-compliant; the engine enforces this with
the exact check functions correct nodes run, applied in observer mode before
any script hook fires.  Arbitrary adversaries have no such gate and may also
use a private multi-hop tunnel to a fellow adversary.  A script reads its
params once, through `srpsim.reader` and the few param converters here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Optional

from .reader import (FieldError, exact_int, exact_number, fields, read_at, read_choice,
                     read_count, read_int, read_list, read_node, take)
from .srp import (Rrep, Rreq, admit_relay, remember_broadcast, rreq_verdict,
                  rrep_verdict)
from .srp_qos import SCALE, to_scaled


class AdversaryClass(str, Enum):
    INDEPENDENT = "independent"
    ARBITRARY = "arbitrary"


# Effects: what attack scripts return, applied in order by
# `AdversaryNode._execute`.  The slotted ones are not frozen: a frozen
# dataclass costs several times as much to create.

@dataclass(slots=True)
class Broadcast:
    msg: object


@dataclass(slots=True)
class Unicast:
    to: str
    msg: object


@dataclass(frozen=True)
class Later:
    """Execute a wrapped action after a delay."""

    delay: float
    action: object


@dataclass(slots=True)
class TunnelSend:
    """Send a payload along the script's tunnel."""

    msg: object


# params naming the node a script unicasts to: each must be on the roster
UNICAST_PARAMS = ("shortcut_to", "target", "jump_to")
# most unprompted moves a fuzz script may schedule (`bounds.spontaneous`)
MAX_SPONTANEOUS = 1000

read_class = read_choice(*AdversaryClass)
_nodes = read_list(read_node)
_PATH = read_list(read_node, least=2)


def _tunnel_path(value) -> tuple:
    path = _PATH(value)
    for a, b in zip(path, path[1:]):
        if a == b:
            raise ValueError(f"hop from {a!r} to itself")
    return path


_move_count = read_int(most=MAX_SPONTANEOUS)  # spontaneous_times() draws this many up front


def _scaled(value) -> int:
    return to_scaled(exact_number(value))


class AttackScript:
    """Base class: every hook gets the `AdversaryNode` it drives and returns
    a list of effects to execute (a None entry is skipped).  Request and
    reply hooks default to what a protocol-following node does, so a script
    overrides only the hooks where it deviates.  A script reads and converts
    its params once, in `__init__`, and holds nothing else: one script serves
    every run of its scenario.  A run's state lives on the node: `store`,
    `rng` (seeded from `rng_seed`) and the once-per-query test `first_copy`.

    Every value a script puts in a message is an exact `str`, `int` or
    `None`, or a tuple of these: params go through `exact_int`, `read_node` and
    `_scaled`, never reaching a message as a `bool`, `float` or list.  The
    process-wide memos behind `simcore.message_digest` and `identity.f_k`
    rely on it, since `True == 1` and `1.0 == 1` would find the entry of an
    equal int that encodes differently."""

    name = "base"
    arbitrary_only = False
    max_emissions = 64
    reply_to: Optional[str] = None  # unicast every reply straight to this node
    tunnel: tuple[str, ...] = ()  # private path to a colluder: owner first, peer last

    def __init__(self, params):
        pass

    def rng_seed(self, node) -> str:
        """The seed of `node.rng`."""
        return f"adv|{node.cfg.seed}|{node.node_id}"

    def spontaneous_times(self, node) -> list[float]:
        """When the run calls `on_time` unprompted; drawn as the run is built."""
        return []

    def on_rreq(self, node, rreq, transmitter):
        return [Broadcast(node.appended_rreq(rreq, transmitter))]

    def on_rrep(self, node, rrep, forwarder):
        if self.reply_to is not None:
            return [Unicast(self.reply_to, rrep)]
        return [node.protocol_rrep_forward(rrep)]

    def on_overhear(self, node, msg, transmitter):
        return []

    def on_tunnel(self, node, msg, frm):
        return []

    def on_time(self, node):
        return []


class LoopInject(AttackScript):
    """Duplicate an identity in the accumulated list (request variant) or in
    the reply's route (reply variant)."""

    name = "loop_inject"

    def __init__(self, params):
        self.where = take(params, "where", read_choice("rreq", "rrep"), "rreq")
        self.dup = take(params, "dup", read_node, None)

    def on_rreq(self, node, rreq, transmitter):
        if self.where != "rreq":
            return super().on_rreq(node, rreq, transmitter)
        dup = self.dup or (rreq.node_list[-1] if rreq.node_list else node.node_id)
        nl = rreq.node_list + (dup, node.node_id)
        return [Broadcast(node.appended_rreq(rreq, transmitter, node_list=nl))]

    def on_rrep(self, node, rrep, forwarder):
        if self.where != "rrep" or not rrep.route:
            return super().on_rrep(node, rrep, forwarder)
        tampered = Rrep(rrep.src, rrep.dst, rrep.qid, (rrep.route[0],) + rrep.route,
                        rrep.auth, rrep.metric_list)
        return [node.protocol_rrep_forward(rrep, tampered)]


class TamperNodelistDownstream(AttackScript):
    """Insert extra identities (a link that was never up) into the list of a
    request received beyond the victim link's claimed position.  The reply
    then follows the claimed route, whose next hop is the fabricated link."""

    name = "tamper_nodelist_downstream"

    def __init__(self, params):
        self.insert = take(params, "insert", _nodes, ())

    def on_rreq(self, node, rreq, transmitter):
        nl = rreq.node_list + self.insert + (node.node_id,)
        return [Broadcast(node.appended_rreq(rreq, transmitter, node_list=nl))]


class ShortcutRelay(TamperNodelistDownstream):
    """Variant of the downstream tamper: on the way back, unicast the reply
    straight to a node earlier in the route, skipping the claimed chain."""

    name = "shortcut_relay"

    def __init__(self, params):
        super().__init__(params)
        self.reply_to = take(params, "shortcut_to", read_node)


class TamperNodelistUpstream(AttackScript):
    """Replace the accumulated list with a fabricated predecessor segment
    ending at this node (claiming a link to it that was never up)."""

    name = "tamper_nodelist_upstream"

    def __init__(self, params):
        self.fake_list = take(params, "fake_list", _nodes)
        self.reply_to = take(params, "jump_to", read_node, None)

    def on_rreq(self, node, rreq, transmitter):
        nl = self.fake_list + (node.node_id,)
        ml = None
        if rreq.metric_list is not None:
            ml = tuple(node.fake_metric() for _ in self.fake_list) + \
                (node.own_metric((transmitter, node.node_id)),)
        return [Broadcast(Rreq(rreq.src, rreq.dst, rreq.qid, rreq.auth, nl, ml))]


class TamperRrepRoute(AttackScript):
    """Edit the reply's route in flight (the end-to-end authenticator no
    longer matches what the destination signed)."""

    name = "tamper_rrep_route"

    def __init__(self, params):
        self.insert = take(params, "insert", _nodes, ())
        self.index = take(params, "index", exact_int, 1)

    def on_rrep(self, node, rrep, forwarder):
        route = rrep.route[:self.index] + self.insert + rrep.route[self.index:]
        out = Rrep(rrep.src, rrep.dst, rrep.qid, route, rrep.auth, rrep.metric_list)
        return [node.protocol_rrep_forward(rrep, out)]


class ForgeRrep(AttackScript):
    """Fabricate a reply with an invented route on receipt of a request; the
    authenticator cannot be computed without the end-node key."""

    name = "forge_rrep"

    def __init__(self, params):
        self.fake_route = take(params, "fake_route", _nodes)

    def on_rreq(self, node, rreq, transmitter):
        fx = super().on_rreq(node, rreq, transmitter)
        if node.first_copy(rreq):  # one forgery per query
            fx.append(self.forgery(node, rreq, transmitter))
        return fx

    def forgery(self, node, rreq, transmitter):
        route = self.fake_route + (node.node_id,) + tuple(reversed(rreq.node_list))
        # hold the forgery until our broadcast above has been overheard,
        # so the upstream forward-list check is not what stops it
        return Later(3.0 * node.cfg.tau, Unicast(transmitter, node.forged_rrep(rreq, route)))


class ImpersonateT(ForgeRrep):
    """Deliver a reply whose route makes the victim's expected forwarder the
    destination itself; the link-layer source identity gives the lie away."""

    name = "impersonate_t"

    def __init__(self, params):
        self.route = take(params, "route", _nodes)
        self.target = take(params, "target", read_node)

    def forgery(self, node, rreq, transmitter):
        return Unicast(self.target, node.forged_rrep(rreq, self.route))


class ReplayStaleRrep(AttackScript):
    """Keep a reply from a finished discovery and re-send it verbatim when
    the source queries again (the stored reply answers an older query id)."""

    name = "replay_stale_rrep"

    def on_rreq(self, node, rreq, transmitter):
        fx = super().on_rreq(node, rreq, transmitter)
        # the stored reply is the first one this node relayed
        relays = (node.protocol_rrep_forward(m) for m in node.store if isinstance(m, Rrep))
        replay = next(filter(None, relays), None)
        if replay is not None:
            old = replay.msg
            if (old.src, old.dst) == (rreq.src, rreq.dst) and old.qid != rreq.qid:
                fx.append(replay)
        return fx


class _MetricEdit(AttackScript):
    """Adds `delta` to the metric entry at `index`; an index past the end of
    the list leaves the message as a protocol-following node relays it."""

    def __init__(self, params):
        self.index = take(params, "index", read_count, 0)
        self.delta = take(params, "delta", _scaled, to_scaled(0.5))


class TamperMetricRrep(_MetricEdit):
    """Alter one reported metric in a reply while relaying it; `index`
    counts from the source end of the route."""

    name = "tamper_metriclist_rrep"

    def on_rrep(self, node, rrep, forwarder):
        fwd = node.protocol_rrep_forward(rrep)
        if fwd is None or self.index >= len(rrep.metric_list or ()):
            return [fwd]
        ml = list(rrep.metric_list)
        ml[len(ml) - 1 - self.index] += self.delta
        out = Rrep(rrep.src, rrep.dst, rrep.qid, rrep.route, rrep.auth, tuple(ml))
        return [Unicast(fwd.to, out)]


class TamperMetricRreqUpstream(_MetricEdit):
    """Alter an already-recorded metric entry in a request before relaying;
    undetectable downstream, caught by a stored prefix on the way back."""

    name = "tamper_metriclist_rreq_upstream"

    def on_rreq(self, node, rreq, transmitter):
        if self.index < len(rreq.metric_list or ()):
            ml = list(rreq.metric_list)
            ml[self.index] += self.delta
            rreq = Rreq(rreq.src, rreq.dst, rreq.qid, rreq.auth, rreq.node_list, tuple(ml))
        return super().on_rreq(node, rreq, transmitter)


class TamperMetricRreqDownstream(AttackScript):
    """Append entries for links not yet traversed; the next hop sees more
    metric entries than identities."""

    name = "tamper_metriclist_rreq_downstream"

    def __init__(self, params):
        self.extra = take(params, "extra", read_list(_scaled), (to_scaled(1.0),))

    def on_rreq(self, node, rreq, transmitter):
        return [Broadcast(node.appended_rreq(rreq, transmitter, extra_metrics=self.extra))]

    def on_rrep(self, node, rrep, forwarder):
        # Replies are dropped, not forwarded.  Augmented-mode runs never
        # route one through this node; in basic mode this is what it does.
        return []


class BiasedMetric(AttackScript):
    """Report the largest metric error that can still pass every endpoint
    consistency check.

    Two modes.  Anchor mode (default): skew just under the tolerance relative
    to what the upstream neighbor's apparatus actually reads; an optional
    headroom (in scaled units) backs off enough to also survive this node's
    own check of its downstream neighbor when measurements are noisy.  Tent
    mode (params carry the route link count): every intermediate is assumed
    adversarial and node i targets a bias of min(i, n-i) consistency-steps,
    the worst feasible profile, ramping up toward the middle of the route and
    back down so the checks at both correct end nodes still pass.
    """

    name = "biased_metric"

    def __init__(self, params):
        self.sign = 1 if take(params, "direction", exact_number, 1.0) >= 0 else -1
        self.links = take(params, "links", exact_int, None)
        self.headroom = take(params, "headroom_scaled", exact_int, 0)

    def on_rreq(self, node, rreq, transmitter):
        qos = node.qos
        if qos is None:
            return super().on_rreq(node, rreq, transmitter)
        s = self.sign
        eps_s = qos.epsilon_scaled
        d_s = qos.delta_scaled
        edge = (transmitter, node.node_id)
        actual = qos.model.actual_scaled(edge)
        if self.links is not None and actual is not None:
            i = len(rreq.node_list) + 1
            step = max(eps_s - 1 - 2 * d_s, 0)
            bias = s * min(i, max(self.links - i, 0)) * step
            node.set_self_bias(bias)
            report = actual + bias
        else:
            # instrumented oracle: what the neighbor's apparatus reads
            anchor = qos.measure_scaled(transmitter, edge)
            if anchor is None:
                anchor = node.own_metric(edge)
            report = anchor + s * max(eps_s - 1 - self.headroom, 0)
            if actual is not None:
                node.set_self_bias(report - actual)
        return [Broadcast(node.appended_rreq(rreq, transmitter, metric=report))]


class Fig1aTunnel(AttackScript):
    """Two colluders pretend to share a link: the request crosses their
    private tunnel while the entry node also broadcasts it, keeping itself
    admitted into its true neighbor's forward list; the reply comes back
    through the tunnel.  Requires the unrestricted adversary class."""

    name = "fig1a_tunnel"
    arbitrary_only = True

    def __init__(self, params):
        self.tunnel = take(params, "path", _tunnel_path)  # both roles send through it
        self.role = take(params, "role", read_choice("entry", "exit"), "entry")
        # the advertised link has no honest second opinion: report whatever
        # the scenario asks for
        self.fake_link_metric = take(params, "fake_link_metric", _scaled, None)

    def on_rreq(self, node, rreq, transmitter):
        # the exit node ignores link-layer copies of the query
        if self.role != "entry" or not node.first_copy(rreq):
            return []
        out = node.appended_rreq(rreq, transmitter)
        return [TunnelSend(out), Broadcast(out)]

    def on_tunnel(self, node, msg, frm):
        if isinstance(msg, Rreq) and self.role == "exit":
            nl = msg.node_list + (node.node_id,)
            ml = msg.metric_list
            if ml is not None:
                lie = self.fake_link_metric
                ml += (node.fake_metric((frm, node.node_id)) if lie is None else lie,)
            return [Broadcast(Rreq(msg.src, msg.dst, msg.qid, msg.auth, nl, ml))]
        if isinstance(msg, Rrep) and self.role == "entry":
            return [node.protocol_rrep_forward(msg)]
        return []

    def on_rrep(self, node, rrep, forwarder):
        if self.role == "exit":
            return [TunnelSend(rrep)]
        return []


class Fig1bChain(TamperNodelistDownstream):
    """A chain of colluders between two correct nodes: the interior node
    rewrites the identity list at will; the others skip the checks and relay
    so the fabrication survives to the endpoints.  Arbitrary class only."""

    name = "fig1b_chain"
    arbitrary_only = True

    def __init__(self, params):
        role = take(params, "role", read_choice("head", "interior", "tail"), "interior")
        interior = role == "interior"
        # an empty insert relays the request as a correct node would
        super().__init__(params if interior else {})
        if interior:
            self.reply_to = take(params, "jump_to", read_node, None)


class PassThrough(AttackScript):
    """Adversarial role with protocol-following behavior; useful as the
    demoted form of a colluding attack."""

    name = "passive"


class FuzzScript(AttackScript):
    """Seeded random behavior over the whole action alphabet but the tunnel.

    The compliance gate applies at runtime regardless of what this script
    would do.  Params: `seed` (default: the run seed) and `bounds`, which may
    set `max_emissions`, `ghosts` (ids it invents) and `spontaneous` (the
    most unprompted moves)."""

    name = "fuzz"
    max_emissions = 10
    ghosts = ("zz1", "zz2")
    _spontaneous = 1

    def __init__(self, params):
        self.seed = take(params, "seed", exact_int, None)
        take(params, "bounds", fields(self._read_bounds), None)

    def _read_bounds(self, bounds):
        self.max_emissions = take(bounds, "max_emissions", exact_int, self.max_emissions)
        self.ghosts = take(bounds, "ghosts", read_list(read_node, least=1), self.ghosts)
        self._spontaneous = take(bounds, "spontaneous", _move_count, self._spontaneous)

    def rng_seed(self, node):
        return f"fuzz-script|{node.cfg.seed if self.seed is None else self.seed}"

    def spontaneous_times(self, node):
        r = node.rng
        return sorted(r.uniform(1.0, 30.0) for _ in range(r.randint(0, self._spontaneous)))

    # -- helpers -----------------------------------------------------------

    def _others(self, node) -> list:
        return [x for x in node.roster if x != node.node_id]

    def _mangle_nodelist(self, node, nl: tuple) -> tuple:
        r = node.rng
        roster = self._others(node)
        choice = r.randrange(6)
        nl = list(nl)
        if choice == 0 and nl:
            nl.insert(r.randrange(len(nl) + 1), r.choice(roster + list(self.ghosts)))
        elif choice == 1 and nl:
            nl.append(r.choice(nl))  # duplicate an existing entry
        elif choice == 2 and nl:
            del nl[r.randrange(len(nl))]
        elif choice == 3 and len(nl) >= 2:
            i, j = r.randrange(len(nl)), r.randrange(len(nl))
            nl[i], nl[j] = nl[j], nl[i]
        elif choice == 4:
            nl = r.sample(roster, min(len(roster), r.randint(1, 3)))
        else:
            nl.insert(0, r.choice(self.ghosts))
        return tuple(nl)

    def _mangle_metrics(self, node, ml: tuple) -> tuple:
        if ml is None or node.qos is None:
            return ml
        r = node.rng
        ml = list(ml)
        eps = node.qos.epsilon_scaled
        choice = r.randrange(4)
        if choice == 0 and ml:
            ml[r.randrange(len(ml))] += r.randint(-3 * eps, 3 * eps)
        elif choice == 1 and ml:
            ml[r.randrange(len(ml))] += (eps - 1) * r.choice((-1, 1))
        elif choice == 2:
            ml.append(r.randint(0, 3 * SCALE))
        elif choice == 3 and ml:
            del ml[r.randrange(len(ml))]
        return tuple(ml)

    def _forged_rrep(self, node, src, dst, qid, augmented) -> Rrep:
        r = node.rng
        roster = [x for x in node.roster if x not in (src, dst)]
        k = r.randint(0, min(3, len(roster)))
        route = tuple(r.sample(roster, k))
        if r.random() < 0.3 and route:
            route = route + (route[0],)  # try a looped route
        ml = None
        if augmented:
            ml = tuple(r.randint(0, 3 * SCALE) for _ in range(len(route) + 1))
        return Rrep(src, dst, qid, route, r.getrandbits(64), ml)

    # -- hooks --------------------------------------------------------------

    def on_rreq(self, node, rreq, transmitter):
        r = node.rng
        p = r.random()
        if p < 0.35:
            return super().on_rreq(node, rreq, transmitter)
        if p < 0.65:
            nl = self._mangle_nodelist(node, rreq.node_list + (node.node_id,))
            out = node.appended_rreq(rreq, transmitter, node_list=nl)
            if out.metric_list is not None:
                ml = self._mangle_metrics(node, out.metric_list)
                if r.random() < 0.5:
                    # realign lengths half the time so the relay can proceed
                    ml = list(ml)
                    while len(ml) < len(out.node_list):
                        ml.append(to_scaled(1.0))
                    ml = tuple(ml[:len(out.node_list)])
                out = Rreq(out.src, out.dst, out.qid, out.auth, out.node_list, ml)
            return [Broadcast(out)]
        if p < 0.72:
            return [Broadcast(rreq)]  # verbatim replay of the received copy
        if p < 0.82:
            return []  # drop
        if p < 0.90:
            return [Unicast(transmitter, self._forged_rrep(
                node, rreq.src, rreq.dst, rreq.qid, rreq.metric_list is not None))]
        for msg in reversed(node.store):
            if isinstance(msg, Rrep):
                return [Unicast(r.choice(self._others(node)), msg)]
            if isinstance(msg, Rreq) and r.random() < 0.5:
                return [Broadcast(msg)]  # replay a stored query
        return []

    def on_rrep(self, node, rrep, forwarder):
        r = node.rng
        p = r.random()
        fwd = node.protocol_rrep_forward(rrep)
        if p < 0.40:
            return [fwd]
        if p < 0.65:
            route = self._mangle_nodelist(node, rrep.route)
            ml = rrep.metric_list
            if ml is not None:
                ml = self._mangle_metrics(node, ml)
            out = Rrep(rrep.src, rrep.dst, rrep.qid, route, rrep.auth, ml)
            target = fwd.to if fwd else r.choice(self._others(node))
            return [Unicast(target, out)]
        if p < 0.80:
            return []
        return [Unicast(r.choice(self._others(node)), rrep)]

    def on_overhear(self, node, msg, transmitter):
        # the driver calls this hook for the arbitrary class only
        if isinstance(msg, Rrep) and node.rng.random() < 0.15:
            return [Unicast(node.rng.choice(self._others(node)), msg)]
        return []

    def on_time(self, node):
        r = node.rng
        roster = self._others(node)
        if len(roster) < 2:
            return []
        src, dst = r.sample(roster, 2)
        if r.random() < 0.5:
            forged = Rreq(src, dst, r.randint(1, 3), r.getrandbits(64),
                          (node.node_id,) if r.random() < 0.5 else (),
                          None if node.qos is None else (to_scaled(1.0),) * (1 if r.random() < 0.5 else 0))
            return [Broadcast(forged)]
        return [Unicast(r.choice(roster),
                        self._forged_rrep(node, src, dst, r.randint(1, 3), node.qos is not None))]


CATALOG: dict[str, type] = {
    cls.name: cls for cls in (
        LoopInject, TamperNodelistDownstream, ShortcutRelay, TamperNodelistUpstream,
        TamperRrepRoute, ImpersonateT, ForgeRrep, ReplayStaleRrep,
        TamperMetricRrep, TamperMetricRreqUpstream, TamperMetricRreqDownstream,
        BiasedMetric, Fig1aTunnel, Fig1bChain, PassThrough, FuzzScript,
    )
}


def attack(name: str, params=None, klass: Optional[AdversaryClass] = None,
           roster=()) -> AttackScript:
    """Build a script from the named catalog, checking its params' types,
    that the script reads every param and that every unicast target and
    tunnel hop is on the roster."""
    cls = CATALOG.get(name)
    if cls is None:
        raise FieldError(("attack",), f"unknown attack {name!r}; see list-attacks")
    if klass is AdversaryClass.INDEPENDENT and cls.arbitrary_only:
        raise FieldError(("class",), f"attack {name!r} requires the arbitrary class: an "
                                     f"independent adversary never acts on traffic it "
                                     f"detects as non-compliant and has no tunnel channel")
    params = {} if params is None else params
    script = read_at(("params",), fields(cls), params)
    named = [(key, params.get(key)) for key in UNICAST_PARAMS]
    for key, value in named + [("path", hop) for hop in script.tunnel]:
        if value is not None and value not in roster:
            raise FieldError(("params", key), f"names {value!r}, which is not in "
                                              f"the roster")
    return script


def step_adversary(node: AdversaryNode, received, transmitter: str):
    """One adversary step: classify the received message with the exact
    protocol check functions run against the adversary's own observer state,
    enforce the independent-class constraint (detectably non-compliant input
    permits only a silent drop), and otherwise collect the script's actions.

    Returns (verdict, actions); verdict is None when the input was compliant
    from this node's position.
    """
    if isinstance(received, Rreq):
        verdict = rreq_verdict(node.state, received, transmitter, node.qos)
    else:
        verdict = rrep_verdict(node.state, received, transmitter, node.qos)
    if verdict is not None and node.klass is AdversaryClass.INDEPENDENT:
        return verdict, []
    if not isinstance(received, Rreq):
        return verdict, node.script.on_rrep(node, received, transmitter)
    if verdict is None:
        node.state.seen.add((received.src, received.qid))
    return verdict, node.script.on_rreq(node, received, transmitter)


class AdversaryNode:
    """Engine driver for an adversarial node, and what its script acts
    through.

    Maintains the same protocol state a correct node would (in observer
    mode), classifies every addressed delivery with the real check functions,
    enforces the independent-class constraint, and executes script actions
    with the script's emission budget.  Every script hook receives this node;
    besides `node_id`, `cfg`, `qos`, `roster` and `store`, a script may call
    the helper methods below.
    """

    def __init__(self, node_id: str, klass: AdversaryClass, script: AttackScript,
                 state, cfg, qos=None, roster=()):
        self.node_id = node_id
        self.klass = klass
        self.script = script
        self.state = state
        self.cfg = cfg
        self.qos = qos
        self.roster = tuple(roster)
        self.store: list = []  # every message delivered to this node
        self.emitted = 0
        self._queries: set = set()  # (src, qid) of each query passed to first_copy

    @cached_property
    def rng(self) -> random.Random:
        """This node's stream, seeded with `script.rng_seed(self)` on its
        first draw: few scripts draw from it."""
        return random.Random(self.script.rng_seed(self))

    # -- script helpers -------------------------------------------------------

    def first_copy(self, rreq: Rreq) -> bool:
        """True the first time this is asked of a query (its source and id),
        for a script that acts once per query."""
        key = (rreq.src, rreq.qid)
        if key in self._queries:
            return False
        self._queries.add(key)
        return True

    def forged_rrep(self, rreq: Rreq, route) -> Rrep:
        """A reply to `rreq` claiming `route`, with plausible metrics and an
        authenticator no end node computed."""
        ml = None
        if rreq.metric_list is not None:
            ml = tuple(self.fake_metric() for _ in range(len(route) + 1))
        return Rrep(rreq.src, rreq.dst, rreq.qid, route, self.rng.getrandbits(64), ml)

    def fake_metric(self, edge=None) -> int:
        """A plausible metric value for a link the adversary is lying about."""
        if self.qos is not None and edge is not None:
            v = self.qos.model.actual_scaled(edge)
            if v is not None:
                return v
        return to_scaled(1.0)

    def own_metric(self, edge) -> int:
        if self.qos is None:
            return 0
        v = self.qos.measure_scaled(self.node_id, edge)
        return v if v is not None else self.fake_metric(edge)

    def set_self_bias(self, bias_scaled: int) -> None:
        """Skew this node's own measurement apparatus by a constant; affects
        both what it reports and what its own consistency checks read."""
        if self.qos is not None:
            self.qos.biases[self.node_id] = bias_scaled

    def appended_rreq(self, rreq: Rreq, transmitter: str, node_list=None,
                      metric: Optional[int] = None, extra_metrics=()) -> Rreq:
        """The relay a protocol-following node would broadcast, with optional
        overrides of the appended identity list and metric entries."""
        nl = node_list if node_list is not None else rreq.node_list + (self.node_id,)
        ml = rreq.metric_list
        if self.qos is not None and ml is not None:
            if metric is None:
                metric = self.own_metric((transmitter, self.node_id))
            pad = len(nl) - len(rreq.node_list) - 1
            fabricated = tuple(self.fake_metric() for _ in range(max(pad, 0)))
            ml = rreq.metric_list + fabricated + (metric,) + tuple(extra_metrics)
        return Rreq(rreq.src, rreq.dst, rreq.qid, rreq.auth, nl, ml)

    def protocol_rrep_forward(self, rrep: Rrep, payload=None):
        """Relay a reply the way the protocol prescribes for our position;
        `payload`, when given, goes to that next hop in the reply's place."""
        if self.node_id not in rrep.route:
            return None
        idx = rrep.route.index(self.node_id)
        target = rrep.route[idx + 1] if idx + 1 < len(rrep.route) else rrep.src
        if target == self.node_id:  # looped route: no sane forwarding target
            return None
        return Unicast(target, rrep if payload is None else payload)

    # -- engine hooks -------------------------------------------------------

    def on_deliver(self, engine, msg, transmitter, addressed, now):
        if isinstance(msg, Rreq):
            admit_relay(self.state, msg, transmitter, self.qos)
        if not addressed:
            if self.klass is AdversaryClass.ARBITRARY:
                self._execute(engine, self.script.on_overhear(self, msg, transmitter))
            return
        verdict, actions = step_adversary(self, msg, transmitter)
        if verdict is not None:
            engine.trace_step(self.node_id, "adv-noncompliant", verdict.text, msg)
            if self.klass is AdversaryClass.INDEPENDENT:
                return  # the one permitted reaction: silent drop
        self.store.append(msg)
        self._execute(engine, actions)

    def on_timer(self, engine, tag, now):
        if tag and tag[0] == "adv_later":
            self._execute(engine, [tag[1]])

    def on_action(self, engine, action, now):
        if action[0] == "adversary_time":
            self._execute(engine, self.script.on_time(self))

    def on_tunnel(self, engine, msg, frm, now):
        self._execute(engine, self.script.on_tunnel(self, msg, frm))

    # -- execution ------------------------------------------------------------

    def _execute(self, engine, actions):
        """Apply the adversary-only rules (deferral, the emission budget, no
        self-addressed frames, tunnels for the arbitrary class only), then
        each surviving effect, in order.  No effect class has a subclass, so
        each is told by its exact type; any other object is refused."""
        for a in actions:
            if a is None:
                continue
            if isinstance(a, Later):
                engine.arm_timer(self.node_id, engine.now + a.delay, ("adv_later", a.action))
                continue
            if isinstance(a, (Broadcast, Unicast, TunnelSend)):
                if self.emitted >= self.script.max_emissions:
                    engine.trace_step(self.node_id, "adv-budget", "emission budget exhausted")
                    return
                self.emitted += 1
                if isinstance(a, Unicast) and a.to == self.node_id:
                    continue
                if isinstance(a, TunnelSend) and self.klass is not AdversaryClass.ARBITRARY:
                    raise RuntimeError(f"{self.node_id}: tunnel use by a non-arbitrary adversary")
                engine.note_adversary_emission(self.node_id, a.msg)
            kind = type(a)
            if kind is Broadcast:
                engine.bcast_l(self.node_id, a.msg)
                if isinstance(a.msg, Rreq):
                    remember_broadcast(self.state, a.msg, self.qos)
            elif kind is Unicast:
                engine.send_l(self.node_id, a.to, a.msg)
            elif kind is TunnelSend:
                if not self.script.tunnel:
                    raise RuntimeError(f"{self.node_id}'s script has no tunnel path")
                engine.tunnel_send(self.script.tunnel, a.msg)
            else:
                raise RuntimeError(f"unexpected effect {a!r} from {self.node_id}")
