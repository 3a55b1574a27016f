"""Scenario files: schema, validation, and wiring into a runnable engine.

A scenario declares the node roster, per-edge up intervals, which node pairs
share keys, metric definitions (augmented mode), adversarial roles with their
attack scripts, the discoveries to initiate, and an optional block of
expectations that makes the scenario self-checking.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

from .adversary import (AdversaryClass, AdversaryNode, AttackClassError,
                        FuzzScript, attack)
from .identity import KeyTable
from .simcore import (Engine, LinkSchedule, ScheduleMap, SimConfig,
                      TunnelChannel, edge_key)
from .srp import NodeState, SrpNode
from .srp_qos import GKind, LinkMetricModel, QosRuntime

REJECTED_METRIC_KINDS = {"willingness", "battery"}

EXPECT_KEYS = {
    "min_accepted", "max_accepted", "loop_free", "fresh", "weakly_fresh",
    "accurate", "victim_link", "victim_link_accepted", "max_metric_error",
}
PROPERTY_MODES = ("all", "not-all", "none")
EXPECT_MODES = {"loop_free": PROPERTY_MODES, "fresh": PROPERTY_MODES,
                "weakly_fresh": PROPERTY_MODES, "accurate": PROPERTY_MODES,
                "victim_link_accepted": ("none", "some")}

# attack params that name the node a script unicasts to
NODE_PARAMS = ("shortcut_to", "target", "jump_to")


class ScenarioError(ValueError):
    """A scenario file failed validation; the message names the rule."""


@dataclass
class AdversarySpec:
    klass: AdversaryClass
    attack: str
    params: dict = field(default_factory=dict)


@dataclass
class MetricsSpec:
    kind: GKind
    epsilon: float
    delta_tilde: float = 0.0
    administrative: bool = False
    actual: dict = field(default_factory=dict)  # edge_key -> float

    def build_model(self, seed: int) -> LinkMetricModel:
        return LinkMetricModel(
            kind=self.kind, epsilon=self.epsilon, delta_tilde=self.delta_tilde,
            administrative=self.administrative, actual=dict(self.actual), seed=seed,
        )


@dataclass
class Scenario:
    name: str
    config: SimConfig
    nodes: tuple[str, ...]
    links: tuple[LinkSchedule, ...]
    keys: tuple[tuple[str, str], ...]
    discoveries: tuple[tuple[str, str, float], ...]
    mode: str = "basic"
    metrics: Optional[MetricsSpec] = None
    adversaries: dict = field(default_factory=dict)  # node -> AdversarySpec
    expect: dict = field(default_factory=dict)
    description: str = ""

    def validate(self) -> None:
        if not self.nodes:
            raise ScenarioError("empty node roster")
        if len(set(self.nodes)) != len(self.nodes):
            raise ScenarioError("duplicate node ids in roster")
        known = set(self.nodes)
        try:
            schedules = ScheduleMap(self.nodes, self.links)
            schedules.validate(self.config.tx_time)
        except ValueError as e:
            raise ScenarioError(str(e))
        for a, b in self.keys:
            if a not in known or b not in known:
                raise ScenarioError(f"key pair ({a}, {b}) names an undeclared node")
            if a == b:
                raise ScenarioError("a node cannot share a key with itself")
        if self.mode not in ("basic", "augmented"):
            raise ScenarioError(f"unknown mode {self.mode!r}")
        if (self.mode == "augmented") != (self.metrics is not None):
            raise ScenarioError("augmented mode requires a metrics section and "
                                "basic mode forbids one")
        if self.metrics is not None:
            for e in self.metrics.actual:
                if e[0] not in known or e[1] not in known:
                    raise ScenarioError(f"metric for undeclared edge {e}")
            try:
                # constructing the model re-runs the numeric validity rules
                self.metrics.build_model(0)
            except ValueError as e:
                raise ScenarioError(str(e))
        keyset = {edge_key(a, b) for a, b in self.keys}
        for src, dst, at in self.discoveries:
            if src not in known or dst not in known:
                raise ScenarioError(f"discovery {src}->{dst} names an undeclared node")
            if src == dst:
                raise ScenarioError("discovery source equals destination")
            if edge_key(src, dst) not in keyset:
                raise ScenarioError(
                    f"discovery {src}->{dst} has no declared end-node key")
            if not (math.isfinite(at) and at >= 0):
                raise ScenarioError("discovery start time must be finite and >= 0")
        for node, spec in self.adversaries.items():
            if node not in known:
                raise ScenarioError(f"adversary {node} is not in the roster")
            if spec.attack == "fuzz":
                if spec.klass is AdversaryClass.INDEPENDENT and \
                        spec.params.get("tunnel"):
                    raise ScenarioError(
                        "independent adversaries have no tunnel channel")
            else:
                try:
                    attack(spec.attack, spec.params, spec.klass)
                except AttackClassError as e:
                    raise ScenarioError(
                        f"adversary {node}: {e} (independent adversaries "
                        f"never act on detectably non-compliant traffic)")
                except ValueError as e:  # unknown attack or missing param
                    raise ScenarioError(f"adversary {node}: {e}")
            for param in NODE_PARAMS:
                value = spec.params.get(param)
                if value is not None and value not in self.nodes:
                    raise ScenarioError(f"adversary {node}: param {param!r} names "
                                        f"{value!r}, which is not in the roster")
            path = spec.params.get("path")
            if path is not None:
                if not isinstance(path, (list, tuple)) or len(path) < 2:
                    raise ScenarioError(f"tunnel path for {node} must list at "
                                        f"least two node ids")
                if spec.klass is not AdversaryClass.ARBITRARY:
                    raise ScenarioError(
                        f"adversary {node}: tunnel paths require the arbitrary class")
                if path[0] != node:
                    raise ScenarioError(f"tunnel path for {node} must start at {node}")
                peer = spec.params.get("peer")
                if peer is None or path[-1] != peer:
                    raise ScenarioError(f"tunnel path for {node} must end at its peer")
                for hop in path:
                    if hop not in known:
                        raise ScenarioError(f"tunnel path hop {hop} is undeclared")
        self._validate_expect(known)

    def _validate_expect(self, known) -> None:
        for key, value in self.expect.items():
            if key not in EXPECT_KEYS:
                raise ScenarioError(f"unknown expectation {key!r}")
            modes = EXPECT_MODES.get(key)
            if modes is not None and value not in modes:
                raise ScenarioError(f"expectation {key!r} must be one of "
                                    f"{', '.join(modes)}, not {value!r}")
        for key in ("min_accepted", "max_accepted"):
            n = self.expect.get(key, 0)
            if isinstance(n, bool) or not isinstance(n, int) or n < 0:
                raise ScenarioError(f"expectation {key!r} must be a count, not {n!r}")
        cap = self.expect.get("max_metric_error", 0.0)
        if isinstance(cap, bool) or not isinstance(cap, (int, float)) \
                or not (math.isfinite(cap) and cap >= 0):
            raise ScenarioError(f"expectation 'max_metric_error' must be a "
                                f"finite number >= 0, not {cap!r}")
        victim = self.expect.get("victim_link")
        if victim is not None:
            if not isinstance(victim, (list, tuple)) or len(victim) != 2 \
                    or victim[0] == victim[1]:
                raise ScenarioError("victim_link must name two distinct nodes")
            if victim[0] not in known or victim[1] not in known:
                raise ScenarioError("victim_link names an undeclared node")


def _require(d: dict, key: str, context: str):
    if key not in d:
        raise ScenarioError(f"{context}: missing required field {key!r}")
    return d[key]


def scenario_from_dict(data: dict, name_hint: str = "<dict>") -> Scenario:
    try:
        nodes = tuple(_require(data, "nodes", name_hint))
        raw_cfg = dict(data.get("config", {}))
        tau = float(raw_cfg.get("tau", 1.0))
        rw_min = raw_cfg.get("reply_wait_min")
        if rw_min is None:
            rw_min = 4.0 * tau * max(len(nodes), 1)
        rw_max = raw_cfg.get("reply_wait_max")
        if rw_max is None:
            rw_max = 16.0 * rw_min
        config = SimConfig(
            tau=tau,
            tx_time=float(raw_cfg.get("tx_time", 1.0)),
            end_time=float(raw_cfg.get("end_time", 300.0)),
            seed=int(raw_cfg.get("seed", 1)),
            reply_wait_min=float(rw_min),
            reply_wait_max=float(rw_max),
        )
        links = []
        for entry in data.get("links", []):
            u, v, intervals = entry[0], entry[1], entry[2]
            links.append(LinkSchedule(
                edge=edge_key(u, v),
                up_intervals=tuple((float(a), float(b)) for a, b in intervals),
            ))
        keys = tuple((a, b) for a, b in data.get("keys", []))
        discoveries = tuple(
            (d["src"], d["dst"], float(d.get("at", 0.0)))
            for d in data.get("discoveries", [])
        )
        metrics = None
        if data.get("metrics") is not None:
            m = data["metrics"]
            kind_name = str(_require(m, "kind", "metrics"))
            if kind_name in REJECTED_METRIC_KINDS:
                raise ScenarioError(
                    f"metric kind {kind_name!r} is node-local and has no "
                    f"two-endpoint agreement; it cannot be verified on a link")
            try:
                kind = GKind(kind_name)
            except ValueError:
                raise ScenarioError(f"unknown metric kind {kind_name!r}")
            metrics = MetricsSpec(
                kind=kind,
                epsilon=float(_require(m, "epsilon", "metrics")),
                delta_tilde=float(m.get("delta_tilde", 0.0)),
                administrative=bool(m.get("administrative", False)),
                actual={edge_key(e[0], e[1]): float(e[2]) for e in m.get("actual", [])},
            )
        adversaries = {}
        for node, spec in dict(data.get("adversaries", {})).items():
            if not isinstance(spec, dict):
                raise ScenarioError(f"adversary {node}: spec must be an object "
                                    f"with 'class', 'attack' and 'params'")
            try:
                klass = AdversaryClass(spec.get("class", "independent"))
            except ValueError:
                raise ScenarioError(f"adversary {node}: unknown class {spec.get('class')!r}")
            adversaries[node] = AdversarySpec(
                klass=klass,
                attack=str(_require(spec, "attack", f"adversary {node}")),
                params=dict(spec.get("params", {})),
            )
        scenario = Scenario(
            name=str(data.get("name", name_hint)),
            description=str(data.get("description", "")),
            config=config,
            nodes=nodes,
            links=tuple(links),
            keys=keys,
            discoveries=discoveries,
            mode=str(data.get("mode", "basic")),
            metrics=metrics,
            adversaries=adversaries,
            expect=dict(data.get("expect", {})),
        )
        scenario.validate()
    except ScenarioError:
        raise
    except (KeyError, TypeError, ValueError, IndexError) as e:
        raise ScenarioError(f"{name_hint}: malformed scenario ({e})")
    return scenario


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file."""
    p = Path(path)
    try:
        data = json.loads(p.read_text())
    except FileNotFoundError:
        raise ScenarioError(f"{p}: no such scenario file")
    except json.JSONDecodeError as e:
        raise ScenarioError(f"{p}:{e.lineno}:{e.colno}: parse error: {e.msg}")
    return scenario_from_dict(data, name_hint=p.stem)


@dataclass
class BuiltRun:
    engine: Engine
    scenario: Scenario
    model: Optional[LinkMetricModel]
    key_table: KeyTable
    faulty: frozenset


def build(scenario: Scenario, seed: Optional[int] = None) -> BuiltRun:
    """Wire a validated scenario into a ready-to-run engine."""
    cfg = scenario.config if seed is None else replace(scenario.config, seed=seed)
    schedules = ScheduleMap(scenario.nodes, scenario.links)
    engine = Engine(cfg, schedules, random.Random(f"run|{cfg.seed}"))
    table = KeyTable()
    for a, b in scenario.keys:
        table.grant(a, b)
    model = None
    qos = None
    if scenario.metrics is not None:
        model = scenario.metrics.build_model(cfg.seed)
        qos = QosRuntime(model)
    for node in scenario.nodes:
        state = NodeState(self_id=node, keys=table.ring(node))
        spec = scenario.adversaries.get(node)
        if spec is None:
            engine.add_node(node, SrpNode(state, cfg, qos))
            continue
        if spec.attack == "fuzz":
            script = FuzzScript(int(spec.params.get("seed", cfg.seed)),
                                spec.klass, spec.params.get("bounds"))
        else:
            script = attack(spec.attack, spec.params, spec.klass)
        driver = AdversaryNode(
            node, spec.klass, script, state, cfg, qos,
            rng=random.Random(f"adv|{cfg.seed}|{node}"), roster=scenario.nodes,
        )
        engine.add_node(node, driver)
        path = spec.params.get("path")
        if path is not None:
            engine.add_tunnel(TunnelChannel(owner=node, peer=spec.params["peer"],
                                            path=tuple(path)))
        for t in script.spontaneous_at:
            engine.schedule_action(t, node, ("adversary_time",))
    engine.seed_link_changes()
    for src, dst, at in scenario.discoveries:
        engine.schedule_action(at, src, ("initiate", dst))
    return BuiltRun(
        engine=engine, scenario=scenario, model=model, key_table=table,
        faulty=frozenset(scenario.adversaries),
    )
