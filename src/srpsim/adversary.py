"""Adversarial node behaviors: the two adversary classes, a library of named
attack scripts covering the known maneuvers against route discovery, and a
seeded random script generator for property-hunting campaigns.

Independent adversaries may store, replay, modify, or forward only messages
they cannot detect as protocol-non-compliant; the engine enforces this with
the exact check functions correct nodes run, applied in observer mode before
any script hook fires.  Arbitrary adversaries have no such gate and may also
use a private multi-hop tunnel to a fellow adversary.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

from . import srp
from .srp import (ArmTimer, Broadcast, Rrep, Rreq, TunnelSend, Unicast,
                  observe_relay, rreq_verdict, rrep_verdict)
from .srp_qos import SCALE, to_scaled


class AdversaryClass(str, Enum):
    INDEPENDENT = "independent"
    ARBITRARY = "arbitrary"


@dataclass(frozen=True)
class Later:
    """Execute a wrapped action after a delay (adversary-only effect)."""

    delay: float
    action: object


class AttackClassError(ValueError):
    """A script was assigned to an adversary class it is not legal for."""


class UnknownAttackError(ValueError):
    pass


class AttackParamError(ValueError):
    """A named attack is missing a param its script cannot run without."""


class AdvContext:
    """What a script may see and do, bound to one adversarial node."""

    def __init__(self, node):
        self._node = node

    @property
    def self_id(self):
        return self._node.node_id

    @property
    def rng(self):
        return self._node.rng

    @property
    def qos(self):
        return self._node.qos

    @property
    def roster(self):
        return self._node.roster

    @property
    def tau(self):
        return self._node.cfg.tau

    @property
    def store(self):
        return self._node.store

    @property
    def observer(self):
        return self._node.state

    def garbage_auth(self) -> int:
        return self._node.rng.getrandbits(64)

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
        v = self.qos.measure_scaled(self.self_id, edge)
        return v if v is not None else self.fake_metric(edge)

    def neighbor_measurement(self, neighbor: str, edge) -> Optional[int]:
        """Instrumented oracle: the exact value the neighbor's apparatus
        reads for the shared link (used by discrepancy-maximizing scripts)."""
        if self.qos is None:
            return None
        return self.qos.measure_scaled(neighbor, edge)

    def set_self_bias(self, bias_scaled: int) -> None:
        """Skew this node's own measurement apparatus by a constant; affects
        both what it reports and what its own consistency checks read."""
        if self.qos is not None:
            self.qos.model.biases[self.self_id] = bias_scaled

    def appended_rreq(self, rreq: Rreq, transmitter: str, node_list=None,
                      metric: Optional[int] = None, extra_metrics=()) -> Rreq:
        """The relay a protocol-following node would broadcast, with optional
        overrides of the appended identity list and metric entries."""
        nl = node_list if node_list is not None else rreq.node_list + (self.self_id,)
        ml = rreq.metric_list
        if self.qos is not None and ml is not None:
            if metric is None:
                metric = self.own_metric((transmitter, self.self_id))
            pad = len(nl) - len(rreq.node_list) - 1
            fabricated = tuple(self.fake_metric() for _ in range(max(pad, 0)))
            ml = rreq.metric_list + fabricated + (metric,) + tuple(extra_metrics)
        return replace(rreq, node_list=nl, metric_list=ml)

    def protocol_rrep_forward(self, rrep: Rrep, payload=None):
        """Relay a reply the way the protocol prescribes for our position;
        `payload`, when given, goes to that next hop in the reply's place."""
        if self.self_id not in rrep.route:
            return None
        idx = rrep.route.index(self.self_id)
        target = rrep.route[idx + 1] if idx + 1 < len(rrep.route) else rrep.src
        if target == self.self_id:  # looped route: no sane forwarding target
            return None
        return Unicast(target, rrep if payload is None else payload)


class AttackScript:
    """Base class: every hook returns a list of effects to execute (a None
    entry is skipped).  Request and reply hooks default to what a
    protocol-following node does, so a script overrides only the hooks where
    it deviates; `required` names the params it cannot run without."""

    name = "base"
    arbitrary_only = False
    required: tuple[str, ...] = ()

    def __init__(self, params=None):
        self.params = dict(params or {})
        self.spontaneous_at: list[float] = []

    def setup(self, ctx: AdvContext) -> None:
        pass

    def on_rreq(self, ctx, rreq, transmitter, now):
        return [Broadcast(ctx.appended_rreq(rreq, transmitter))]

    def on_rrep(self, ctx, rrep, forwarder, now):
        return [ctx.protocol_rrep_forward(rrep)]

    def on_overhear(self, ctx, msg, transmitter, now):
        return []

    def on_tunnel(self, ctx, msg, frm, now):
        return []

    def on_time(self, ctx, now):
        return []


class LoopInject(AttackScript):
    """Duplicate an identity in the accumulated list (request variant) or in
    the reply's route (reply variant)."""

    name = "loop_inject"

    def on_rreq(self, ctx, rreq, transmitter, now):
        if self.params.get("where", "rreq") != "rreq":
            return super().on_rreq(ctx, rreq, transmitter, now)
        dup = self.params.get("dup") or (rreq.node_list[-1] if rreq.node_list else ctx.self_id)
        nl = rreq.node_list + (dup, ctx.self_id)
        return [Broadcast(ctx.appended_rreq(rreq, transmitter, node_list=nl))]

    def on_rrep(self, ctx, rrep, forwarder, now):
        if self.params.get("where", "rreq") != "rrep" or not rrep.route:
            return super().on_rrep(ctx, rrep, forwarder, now)
        tampered = replace(rrep, route=(rrep.route[0],) + rrep.route)
        return [ctx.protocol_rrep_forward(rrep, tampered)]


class TamperNodelistDownstream(AttackScript):
    """Insert extra identities (a link that was never up) into the list of a
    request received beyond the victim link's claimed position.  The reply
    then follows the claimed route, whose next hop is the fabricated link."""

    name = "tamper_nodelist_downstream"

    def on_rreq(self, ctx, rreq, transmitter, now):
        insert = tuple(self.params.get("insert", ()))
        nl = rreq.node_list + insert + (ctx.self_id,)
        return [Broadcast(ctx.appended_rreq(rreq, transmitter, node_list=nl))]


class ShortcutRelay(TamperNodelistDownstream):
    """Variant of the downstream tamper: on the way back, unicast the reply
    straight to a node earlier in the route, skipping the claimed chain."""

    name = "shortcut_relay"
    required = ("shortcut_to",)

    def on_rrep(self, ctx, rrep, forwarder, now):
        return [Unicast(self.params["shortcut_to"], rrep)]


class TamperNodelistUpstream(AttackScript):
    """Replace the accumulated list with a fabricated predecessor segment
    ending at this node (claiming a link to it that was never up)."""

    name = "tamper_nodelist_upstream"
    required = ("fake_list",)

    def on_rreq(self, ctx, rreq, transmitter, now):
        fake = tuple(self.params["fake_list"])
        nl = fake + (ctx.self_id,)
        ml = None
        if rreq.metric_list is not None:
            ml = tuple(ctx.fake_metric() for _ in fake) + \
                (ctx.own_metric((transmitter, ctx.self_id)),)
        out = replace(rreq, node_list=nl, metric_list=ml)
        return [Broadcast(out)]

    def on_rrep(self, ctx, rrep, forwarder, now):
        jump = self.params.get("jump_to")
        if jump is not None:
            return [Unicast(jump, rrep)]
        return super().on_rrep(ctx, rrep, forwarder, now)


class TamperRrepRoute(AttackScript):
    """Edit the reply's route in flight (the end-to-end authenticator no
    longer matches what the destination signed)."""

    name = "tamper_rrep_route"

    def on_rrep(self, ctx, rrep, forwarder, now):
        insert = tuple(self.params.get("insert", ()))
        index = int(self.params.get("index", 1))
        tampered = replace(rrep, route=rrep.route[:index] + insert + rrep.route[index:])
        return [ctx.protocol_rrep_forward(rrep, tampered)]


class ImpersonateT(AttackScript):
    """Deliver a reply whose route makes the victim's expected forwarder the
    destination itself; the link-layer source identity gives the lie away."""

    name = "impersonate_t"
    required = ("route", "target")

    def __init__(self, params=None):
        super().__init__(params)
        self._done = set()

    def on_rreq(self, ctx, rreq, transmitter, now):
        fx = super().on_rreq(ctx, rreq, transmitter, now)
        key = (rreq.src, rreq.qid)
        if key not in self._done:
            self._done.add(key)
            route = tuple(self.params["route"])
            ml = None
            if rreq.metric_list is not None:
                ml = tuple(ctx.fake_metric() for _ in range(len(route) + 1))
            forged = Rrep(rreq.src, rreq.dst, rreq.qid, route, ctx.garbage_auth(), ml)
            fx.append(Unicast(self.params["target"], forged))
        return fx


class ForgeRrep(AttackScript):
    """Fabricate a reply with an invented route on receipt of a request; the
    authenticator cannot be computed without the end-node key."""

    name = "forge_rrep"
    required = ("fake_route",)

    def __init__(self, params=None):
        super().__init__(params)
        self._done = set()

    def on_rreq(self, ctx, rreq, transmitter, now):
        fx = super().on_rreq(ctx, rreq, transmitter, now)
        key = (rreq.src, rreq.qid)
        if key not in self._done:
            self._done.add(key)
            route = tuple(self.params["fake_route"]) + (ctx.self_id,) + \
                tuple(reversed(rreq.node_list))
            ml = None
            if rreq.metric_list is not None:
                ml = tuple(ctx.fake_metric() for _ in range(len(route) + 1))
            forged = Rrep(rreq.src, rreq.dst, rreq.qid, route, ctx.garbage_auth(), ml)
            # hold the forgery until our broadcast above has been overheard,
            # so the upstream forward-list check is not what stops it
            fx.append(Later(3.0 * ctx.tau, Unicast(transmitter, forged)))
        return fx


class ReplayStaleRrep(AttackScript):
    """Keep a reply from a concluded discovery and re-send it verbatim when
    the source queries again (the stored reply answers an older query id)."""

    name = "replay_stale_rrep"

    def __init__(self, params=None):
        super().__init__(params)
        self._stored = None  # (rrep, relay_target)

    def on_rrep(self, ctx, rrep, forwarder, now):
        fwd = ctx.protocol_rrep_forward(rrep)
        if fwd is not None and self._stored is None:
            self._stored = (rrep, fwd.to)
        return [fwd]

    def on_rreq(self, ctx, rreq, transmitter, now):
        fx = super().on_rreq(ctx, rreq, transmitter, now)
        if self._stored is not None:
            old, target = self._stored
            if (old.src, old.dst) == (rreq.src, rreq.dst) and old.qid != rreq.qid:
                fx.append(Unicast(target, old))
        return fx


class TamperMetricRrep(AttackScript):
    """Alter one reported metric in a reply while relaying it."""

    name = "tamper_metriclist_rrep"

    def on_rrep(self, ctx, rrep, forwarder, now):
        fwd = ctx.protocol_rrep_forward(rrep)
        if fwd is None or rrep.metric_list is None:
            return [fwd]
        # index counts from the source end of the route
        idx_from_src = int(self.params.get("index", 0))
        ml = list(rrep.metric_list)
        pos = len(ml) - 1 - idx_from_src
        ml[pos] += to_scaled(float(self.params.get("delta", 0.5)))
        return [Unicast(fwd.to, replace(rrep, metric_list=tuple(ml)))]


class TamperMetricRreqUpstream(AttackScript):
    """Alter an already-recorded metric entry in a request before relaying;
    undetectable downstream, caught by a stored prefix on the way back."""

    name = "tamper_metriclist_rreq_upstream"

    def on_rreq(self, ctx, rreq, transmitter, now):
        if not rreq.metric_list:
            return super().on_rreq(ctx, rreq, transmitter, now)
        idx = int(self.params.get("index", 0))
        ml = list(rreq.metric_list)
        ml[idx] += to_scaled(float(self.params.get("delta", 0.5)))
        tampered = replace(rreq, metric_list=tuple(ml))
        return super().on_rreq(ctx, tampered, transmitter, now)


class TamperMetricRreqDownstream(AttackScript):
    """Append entries for links not yet traversed; the next hop sees more
    metric entries than identities."""

    name = "tamper_metriclist_rreq_downstream"

    def on_rreq(self, ctx, rreq, transmitter, now):
        extra = tuple(to_scaled(float(x)) for x in self.params.get("extra", (1.0,)))
        return [Broadcast(ctx.appended_rreq(rreq, transmitter, extra_metrics=extra))]

    def on_rrep(self, ctx, rrep, forwarder, now):
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

    def on_rreq(self, ctx, rreq, transmitter, now):
        if ctx.qos is None:
            return super().on_rreq(ctx, rreq, transmitter, now)
        s = 1 if float(self.params.get("direction", 1)) >= 0 else -1
        eps_s = ctx.qos.epsilon_scaled
        d_s = ctx.qos.delta_scaled
        edge = (transmitter, ctx.self_id)
        actual = ctx.qos.model.actual_scaled(edge)
        if "links" in self.params and actual is not None:
            i = len(rreq.node_list) + 1
            n = int(self.params["links"])
            step = max(eps_s - 1 - 2 * d_s, 0)
            bias = s * min(i, max(n - i, 0)) * step
            ctx.set_self_bias(bias)
            report = actual + bias
        else:
            anchor = ctx.neighbor_measurement(transmitter, edge)
            if anchor is None:
                anchor = ctx.own_metric(edge)
            headroom = int(self.params.get("headroom_scaled", 0))
            report = anchor + s * max(eps_s - 1 - headroom, 0)
            if actual is not None:
                ctx.set_self_bias(report - actual)
        return [Broadcast(ctx.appended_rreq(rreq, transmitter, metric=report))]


class Fig1aTunnel(AttackScript):
    """Two colluders pretend to share a link: the request crosses their
    private tunnel while the entry node also broadcasts it, keeping itself
    admitted into its true neighbor's forward list; the reply comes back
    through the tunnel.  Requires the unrestricted adversary class."""

    name = "fig1a_tunnel"
    arbitrary_only = True

    def __init__(self, params=None):
        super().__init__(params)
        self._done = set()

    def on_rreq(self, ctx, rreq, transmitter, now):
        if self.params.get("role", "entry") != "entry":
            return []  # exit node ignores link-layer copies of the query
        key = (rreq.src, rreq.qid)
        if key in self._done:
            return []
        self._done.add(key)
        out = ctx.appended_rreq(rreq, transmitter)
        return [TunnelSend(out), Broadcast(out)]

    def on_tunnel(self, ctx, msg, frm, now):
        if isinstance(msg, Rreq) and self.params.get("role") == "exit":
            nl = msg.node_list + (ctx.self_id,)
            ml = msg.metric_list
            if ml is not None:
                # the advertised link has no honest second opinion: report
                # whatever the scenario asks for
                lie = self.params.get("fake_link_metric")
                appended = to_scaled(float(lie)) if lie is not None \
                    else ctx.fake_metric((frm, ctx.self_id))
                ml = ml + (appended,)
            return [Broadcast(replace(msg, node_list=nl, metric_list=ml))]
        if isinstance(msg, Rrep) and self.params.get("role", "entry") == "entry":
            return [ctx.protocol_rrep_forward(msg)]
        return []

    def on_rrep(self, ctx, rrep, forwarder, now):
        if self.params.get("role") == "exit":
            return [TunnelSend(rrep)]
        return []


class Fig1bChain(AttackScript):
    """A chain of colluders between two correct nodes: the interior node
    rewrites the identity list at will; the others skip the checks and relay
    so the fabrication survives to the endpoints.  Arbitrary class only."""

    name = "fig1b_chain"
    arbitrary_only = True

    def on_rreq(self, ctx, rreq, transmitter, now):
        role = self.params.get("role", "interior")
        if role == "interior":
            insert = tuple(self.params.get("insert", ()))
            nl = rreq.node_list + insert + (ctx.self_id,)
            return [Broadcast(ctx.appended_rreq(rreq, transmitter, node_list=nl))]
        return super().on_rreq(ctx, rreq, transmitter, now)

    def on_rrep(self, ctx, rrep, forwarder, now):
        role = self.params.get("role", "interior")
        if role == "interior" and "jump_to" in self.params:
            return [Unicast(self.params["jump_to"], rrep)]
        return super().on_rrep(ctx, rrep, forwarder, now)


class PassThrough(AttackScript):
    """Adversarial role with protocol-following behavior; useful as the
    demoted form of a colluding attack."""

    name = "passive"


class FuzzScript(AttackScript):
    """Seeded random behavior over the action alphabet, respecting the class
    constraints (no tunnel use when independent; the compliance gate applies
    at runtime regardless of what this script would do)."""

    name = "fuzz"

    def __init__(self, seed: int, klass: AdversaryClass, bounds=None):
        super().__init__({})
        self.seed = seed
        self.klass = klass
        b = dict(bounds or {})
        self.max_emissions = int(b.get("max_emissions", 10))
        self.ghosts = tuple(b.get("ghosts", ("zz1", "zz2")))
        self.rng = random.Random(f"fuzz-script|{seed}")
        self._spontaneous = int(b.get("spontaneous", 1))

    def setup(self, ctx):
        self.spontaneous_at = sorted(
            self.rng.uniform(1.0, 30.0) for _ in range(self.rng.randint(0, self._spontaneous))
        )

    # -- helpers -----------------------------------------------------------

    def _mangle_nodelist(self, ctx, nl: tuple) -> tuple:
        r = self.rng
        roster = [x for x in ctx.roster if x != ctx.self_id]
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
            nl.insert(0, r.choice(list(self.ghosts)))
        return tuple(nl)

    def _mangle_metrics(self, ctx, ml: tuple) -> tuple:
        if ml is None or ctx.qos is None:
            return ml
        r = self.rng
        ml = list(ml)
        eps = ctx.qos.epsilon_scaled
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

    def _forged_rrep(self, ctx, src, dst, qid, augmented) -> Rrep:
        r = self.rng
        roster = [x for x in ctx.roster if x not in (src, dst)]
        k = r.randint(0, min(3, len(roster)))
        route = tuple(r.sample(roster, k))
        if r.random() < 0.3 and route:
            route = route + (route[0],)  # try a looped route
        ml = None
        if augmented:
            ml = tuple(r.randint(0, 3 * SCALE) for _ in range(len(route) + 1))
        return Rrep(src, dst, qid, route, r.getrandbits(64), ml)

    # -- hooks --------------------------------------------------------------

    def on_rreq(self, ctx, rreq, transmitter, now):
        r = self.rng
        p = r.random()
        if p < 0.35:
            return super().on_rreq(ctx, rreq, transmitter, now)
        if p < 0.65:
            nl = self._mangle_nodelist(ctx, rreq.node_list + (ctx.self_id,))
            out = ctx.appended_rreq(rreq, transmitter, node_list=nl)
            if out.metric_list is not None:
                ml = self._mangle_metrics(ctx, out.metric_list)
                if r.random() < 0.5:
                    # realign lengths half the time so the relay can proceed
                    ml = list(ml)
                    while len(ml) < len(out.node_list):
                        ml.append(to_scaled(1.0))
                    ml = tuple(ml[:len(out.node_list)])
                out = replace(out, metric_list=ml)
            return [Broadcast(out)]
        if p < 0.72:
            return [Broadcast(rreq)]  # verbatim replay of the received copy
        if p < 0.82:
            return []  # drop
        if p < 0.90:
            return [Unicast(transmitter, self._forged_rrep(
                ctx, rreq.src, rreq.dst, rreq.qid, rreq.metric_list is not None))]
        for msg, _, _ in reversed(ctx.store):
            if isinstance(msg, Rrep):
                target = r.choice([x for x in ctx.roster if x != ctx.self_id])
                return [Unicast(target, msg)]
            if isinstance(msg, Rreq) and r.random() < 0.5:
                return [Broadcast(msg)]  # replay a stored query
        return []

    def on_rrep(self, ctx, rrep, forwarder, now):
        r = self.rng
        p = r.random()
        fwd = ctx.protocol_rrep_forward(rrep)
        if p < 0.40:
            return [fwd]
        if p < 0.65:
            out = replace(rrep, route=self._mangle_nodelist(ctx, rrep.route))
            if rrep.metric_list is not None:
                ml = self._mangle_metrics(ctx, rrep.metric_list)
                out = replace(out, metric_list=ml)
            target = fwd.to if fwd else r.choice([x for x in ctx.roster if x != ctx.self_id])
            return [Unicast(target, out)]
        if p < 0.80:
            return []
        target = r.choice([x for x in ctx.roster if x != ctx.self_id])
        return [Unicast(target, rrep)]

    def on_overhear(self, ctx, msg, transmitter, now):
        if self.klass is AdversaryClass.ARBITRARY and isinstance(msg, Rrep):
            if self.rng.random() < 0.15:
                target = self.rng.choice([x for x in ctx.roster if x != ctx.self_id])
                return [Unicast(target, msg)]
        return []

    def on_time(self, ctx, now):
        r = self.rng
        roster = [x for x in ctx.roster if x != ctx.self_id]
        if len(roster) < 2:
            return []
        src, dst = r.sample(roster, 2)
        if r.random() < 0.5:
            forged = Rreq(src, dst, r.randint(1, 3), r.getrandbits(64),
                          (ctx.self_id,) if r.random() < 0.5 else (),
                          None if ctx.qos is None else (to_scaled(1.0),) * (1 if r.random() < 0.5 else 0))
            return [Broadcast(forged)]
        return [Unicast(r.choice(roster),
                        self._forged_rrep(ctx, src, dst, r.randint(1, 3), ctx.qos is not None))]


CATALOG: dict[str, type] = {
    cls.name: cls for cls in (
        LoopInject, TamperNodelistDownstream, ShortcutRelay, TamperNodelistUpstream,
        TamperRrepRoute, ImpersonateT, ForgeRrep, ReplayStaleRrep,
        TamperMetricRrep, TamperMetricRreqUpstream, TamperMetricRreqDownstream,
        BiasedMetric, Fig1aTunnel, Fig1bChain, PassThrough,
    )
}


def attack(name: str, params=None, klass: Optional[AdversaryClass] = None) -> AttackScript:
    """Build a validated script from the named catalog."""
    cls = CATALOG.get(name)
    if cls is None:
        raise UnknownAttackError(f"unknown attack {name!r}; see list-attacks")
    if klass is AdversaryClass.INDEPENDENT and cls.arbitrary_only:
        raise AttackClassError(
            f"attack {name!r} requires the arbitrary class: an independent "
            f"adversary never acts on traffic it detects as non-compliant "
            f"and has no tunnel channel"
        )
    for key in cls.required:
        if key not in (params or {}):
            raise AttackParamError(f"attack {name!r} requires param {key!r}")
    return cls(params)


def step_adversary(klass: AdversaryClass, script: AttackScript, received,
                   state, transmitter: str, now: float, ctx: AdvContext, qos=None):
    """One adversary step: classify the received message with the exact
    protocol check functions run against the adversary's own observer state,
    enforce the independent-class constraint (detectably non-compliant input
    permits only a silent drop), and otherwise collect the script's actions.

    Returns (verdict, actions); verdict is None when the input was compliant
    from this node's position.
    """
    if isinstance(received, Rreq):
        verdict = rreq_verdict(state, received, transmitter, qos)
    else:
        verdict = rrep_verdict(state, received, transmitter, qos)
    if verdict is not None and klass is AdversaryClass.INDEPENDENT:
        return verdict, []
    if verdict is None and isinstance(received, Rreq):
        state.seen.add((received.src, received.qid))
    if isinstance(received, Rreq):
        actions = script.on_rreq(ctx, received, transmitter, now)
    else:
        actions = script.on_rrep(ctx, received, transmitter, now)
    return verdict, actions


class AdversaryNode:
    """Engine driver for an adversarial node.

    Maintains the same protocol state a correct node would (in observer
    mode), classifies every addressed delivery with the real check functions,
    enforces the independent-class constraint, and executes script actions
    with an emission budget.
    """

    def __init__(self, node_id: str, klass: AdversaryClass, script: AttackScript,
                 state, cfg, qos=None, rng=None, roster=(), max_emissions=64):
        self.node_id = node_id
        self.klass = klass
        self.script = script
        self.state = state
        self.cfg = cfg
        self.qos = qos
        self.rng = rng or random.Random(node_id)
        self.roster = tuple(roster)
        self.store: list[tuple[object, str, float]] = []
        self.emitted = 0
        self.max_emissions = getattr(script, "max_emissions", max_emissions)
        self.ctx = AdvContext(self)
        script.setup(self.ctx)

    # -- engine hooks -------------------------------------------------------

    def on_deliver(self, engine, msg, transmitter, addressed, now, delivery_id=0):
        if isinstance(msg, Rreq):
            observe_relay(self.state, msg, transmitter, self.qos)
        if not addressed:
            if self.klass is AdversaryClass.ARBITRARY:
                actions = self.script.on_overhear(self.ctx, msg, transmitter, now)
                self._execute(engine, actions, f"overhear:{delivery_id}")
            return
        verdict, actions = step_adversary(self.klass, self.script, msg,
                                          self.state, transmitter, now,
                                          self.ctx, self.qos)
        if verdict is not None:
            engine.noncompliant_deliveries.add(delivery_id)
            engine.trace_step(self.node_id, "adv-noncompliant", str(verdict), msg)
            if self.klass is AdversaryClass.INDEPENDENT:
                return  # the one permitted reaction: silent drop
        self.store.append((msg, transmitter, now))
        self._execute(engine, actions, f"deliver:{delivery_id}")

    def on_timer(self, engine, tag, now):
        if tag and tag[0] == "adv_later":
            self._execute(engine, [tag[1]], "deferred")

    def on_action(self, engine, action, now):
        if action[0] == "adversary_time":
            self._execute(engine, self.script.on_time(self.ctx, now), "spontaneous")

    def on_tunnel(self, engine, msg, frm, now):
        actions = self.script.on_tunnel(self.ctx, msg, frm, now)
        self._execute(engine, actions, "tunnel")

    # -- execution ------------------------------------------------------------

    def _execute(self, engine, actions, trigger: str):
        """Apply the adversary-only rules (deferral, the emission budget, no
        self-addressed frames, tunnels for the arbitrary class only) and hand
        each surviving effect to the shared executor."""
        for a in actions:
            if a is None:
                continue
            if isinstance(a, Later):
                a = ArmTimer(engine.now + a.delay, ("adv_later", a.action))
            elif isinstance(a, (Broadcast, Unicast, TunnelSend)):
                if self.emitted >= self.max_emissions:
                    engine.trace_step(self.node_id, "adv-budget", "emission budget exhausted")
                    return
                self.emitted += 1
                if isinstance(a, Unicast) and a.to == self.node_id:
                    continue
                if isinstance(a, TunnelSend) and self.klass is not AdversaryClass.ARBITRARY:
                    raise AttackClassError("tunnel use by a non-arbitrary adversary")
                engine.note_adversary_emission(self.node_id, a.msg, trigger)
            srp.execute(engine, self.node_id, [a])
            if isinstance(a, Broadcast) and isinstance(a.msg, Rreq):
                srp.remember_broadcast(self.state, a.msg, self.qos)
