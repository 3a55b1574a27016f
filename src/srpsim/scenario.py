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
from functools import cached_property
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Optional

from .adversary import AdversaryClass, AdversaryNode, AttackScript, attack
from .identity import KeyRing, KeyTable, remember
from .simcore import (Engine, LinkSchedule, ScheduleMap, SimConfig, edge_key,
                      exact_int, exact_number, is_node_id)
from .srp import NodeState, SrpNode
from .srp_qos import GKind, LinkMetricModel, QosRuntime

REJECTED_METRIC_KINDS = {"willingness", "battery"}

EXPECT_KEYS = {
    "min_accepted", "max_accepted", "loop_free", "fresh", "weakly_fresh",
    "accurate", "victim_link", "victim_link_accepted", "max_metric_error",
}
# the keys each object of a scenario file may hold
SCENARIO_KEYS = {"name", "description", "mode", "nodes", "config", "links", "keys",
                 "discoveries", "metrics", "adversaries", "expect"}
CONFIG_KEYS = {"tau", "tx_time", "end_time", "seed", "reply_wait_min", "reply_wait_max"}
DISCOVERY_KEYS = {"src", "dst", "at"}
METRICS_KEYS = {"kind", "epsilon", "delta_tilde", "administrative", "actual"}
ADVERSARY_KEYS = {"class", "attack", "params"}
PROPERTY_MODES = ("all", "not-all", "none")
EXPECT_MODES = {"loop_free": PROPERTY_MODES, "fresh": PROPERTY_MODES,
                "weakly_fresh": PROPERTY_MODES, "accurate": PROPERTY_MODES,
                "victim_link_accepted": ("none", "some")}


# (roster, ((edge, repr(up_intervals)), ...)) -> ScheduleMap, and
# (roster, key pairs) -> key rings: each shared by every scenario of that
# shape in the process, emptied when it reaches its cap.  Intervals are keyed
# by their rendered form, which is what a link-change line prints: 0, 0.0 and
# -0.0 are equal but print apart.
SCHEDULE_MAP_MEMO_CAP = 16
_SCHEDULE_MAPS: dict[tuple, ScheduleMap] = {}
KEY_RINGS_MEMO_CAP = 16
_KEY_RINGS: dict[tuple, Mapping[str, KeyRing]] = {}


class ScenarioError(ValueError):
    """A scenario file failed validation; the message names the rule."""


@dataclass(frozen=True)
class AdversarySpec:
    klass: AdversaryClass
    attack: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Scenario:
    name: str
    config: SimConfig
    nodes: tuple[str, ...]
    links: tuple[LinkSchedule, ...]
    keys: tuple[tuple[str, str], ...]
    discoveries: tuple[tuple[str, str, float], ...]
    metrics: Optional[LinkMetricModel] = None  # None: basic mode
    adversaries: dict = field(default_factory=dict)  # node -> AdversarySpec
    expect: dict = field(default_factory=dict)

    @cached_property
    def schedule_map(self) -> ScheduleMap:
        """The ScheduleMap of the scenario's roster and links, shared with
        every scenario whose roster, edges and rendered intervals are the
        same; read-only once built."""
        memo_key = (self.nodes,
                    tuple((s.edge, repr(s.up_intervals)) for s in self.links))
        schedules = _SCHEDULE_MAPS.get(memo_key)
        if schedules is None:
            schedules = remember(_SCHEDULE_MAPS, SCHEDULE_MAP_MEMO_CAP, memo_key,
                                 ScheduleMap(self.nodes, self.links))
        return schedules

    @cached_property
    def key_rings(self) -> Mapping[str, KeyRing]:
        """Each node's KeyRing over the scenario's key table, shared with
        every scenario of the same roster and key pairs; read-only, and no
        key is granted once the rings exist."""
        memo_key = (self.nodes, self.keys)
        rings = _KEY_RINGS.get(memo_key)
        if rings is None:
            table = KeyTable()
            for a, b in self.keys:
                table.grant(a, b)
            rings = remember(_KEY_RINGS, KEY_RINGS_MEMO_CAP, memo_key, MappingProxyType(
                {node: table.ring(node) for node in self.nodes}))
        return rings

    @cached_property
    def scripts(self) -> dict[str, AttackScript]:
        """Each adversary's attack script, built and checked once and shared
        by every run."""
        scripts = {}
        for node, spec in self.adversaries.items():
            if node not in self.nodes:
                raise ScenarioError(f"adversary {node} is not in the roster")
            try:
                scripts[node] = attack(spec.attack, spec.params, spec.klass, self.nodes)
            except ValueError as e:  # unknown attack, wrong class or a bad param
                raise ScenarioError(f"adversary {node}: {e}")
        return scripts

    def validate(self) -> None:
        if not self.nodes:
            raise ScenarioError("empty node roster")
        for node in self.nodes:
            if not is_node_id(node):
                raise ScenarioError(f"node id {node!r} must be a non-empty string "
                                    f"of UTF-8 text with no whitespace and no ','")
        if len(set(self.nodes)) != len(self.nodes):
            raise ScenarioError("duplicate node ids in roster")
        # the name is written into a stored trace's one-line UTF-8 header
        if len(f"{self.name}.".splitlines()) != 1:
            raise ScenarioError(f"scenario name {self.name!r} must not contain "
                                f"a line break")
        try:
            self.name.encode("utf-8")
        except UnicodeEncodeError:
            raise ScenarioError(f"scenario name {self.name!r} must be UTF-8 text, "
                                f"with no lone surrogate")
        known = set(self.nodes)
        try:
            self.schedule_map.validate(self.config.tx_time)
        except ValueError as e:
            raise ScenarioError(str(e))
        for a, b in self.keys:
            if a not in known or b not in known:
                raise ScenarioError(f"key pair ({a}, {b}) names an undeclared node")
            if a == b:
                raise ScenarioError("a node cannot share a key with itself")
        if self.metrics is not None:
            for e in self.metrics.actual:
                if e[0] not in known or e[1] not in known:
                    raise ScenarioError(f"metric for undeclared edge {e}")
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
        scripts = self.scripts
        for node, script in scripts.items():
            if not script.tunnel:
                continue
            if script.tunnel[0] != node:
                raise ScenarioError(f"adversary {node}: tunnel path must start at {node}")
            peer = script.tunnel[-1]
            spec = self.adversaries.get(peer)
            if spec is None or spec.klass is not AdversaryClass.ARBITRARY:
                raise ScenarioError(f"adversary {node}: tunnel path must end at an "
                                    f"arbitrary-class adversary, not {peer!r}")
            # only a colluding script, one that tunnels back, acts on what
            # arrives through a tunnel
            if scripts[peer].tunnel[-1:] != (node,):
                raise ScenarioError(f"adversary {node}: tunnel peer {peer} must hold "
                                    f"a tunnel that ends at {node}")
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
                    or not all(type(v) is str for v in victim) or victim[0] == victim[1]:
                raise ScenarioError("victim_link must name two distinct nodes")
            if victim[0] not in known or victim[1] not in known:
                raise ScenarioError("victim_link names an undeclared node")


def _require(d: dict, key: str, context: str):
    if key not in d:
        raise ScenarioError(f"{context}: missing required field {key!r}")
    return d[key]


def _array(value, what: str, length: Optional[int] = None) -> list:
    """`value` if it is a JSON array, of `length` items when that is given."""
    if type(value) is not list or length not in (None, len(value)):
        items = "" if length is None else f" of {length} items"
        raise ScenarioError(f"{what} must be an array{items}, not {value!r}")
    return value


def _object(value, what: str, keys=None) -> dict:
    """`value` if it is a JSON object, holding no key outside `keys` when
    they are given."""
    if type(value) is not dict:
        raise ScenarioError(f"{what} must be an object, not {value!r}")
    for key in value:
        if keys is not None and key not in keys:
            raise ScenarioError(f"{what} has no key {key!r}")
    return value


def _node(value, what: str) -> str:
    """`value` if it is a string; validate checks that it is a roster node."""
    if type(value) is not str:
        raise ScenarioError(f"{what} must be a node id, not {value!r}")
    return value


def _exact(read, value, what: str):
    """`read(value)` for an exact-type reader; its TypeError, or the
    OverflowError of an int past float range, names `what`."""
    try:
        return read(value)
    except (TypeError, OverflowError) as e:
        raise ScenarioError(f"{what}: {e}")


def _config(raw_cfg: dict, key: str, read, default):
    """Config field `key` read by exact type; absent or null, `default`."""
    value = raw_cfg.get(key)
    return default if value is None else _exact(read, value, f"config {key!r}")


def scenario_from_dict(data: dict, name_hint: str = "<dict>") -> Scenario:
    try:
        _object(data, "scenario", SCENARIO_KEYS)
        nodes = tuple(_array(_require(data, "nodes", name_hint), "nodes"))
        raw_cfg = _object(data.get("config", {}), "config", CONFIG_KEYS)
        tau = _config(raw_cfg, "tau", exact_number, 1.0)
        rw_min = _config(raw_cfg, "reply_wait_min", exact_number,
                         4.0 * tau * max(len(nodes), 1))
        config = SimConfig(
            tau=tau,
            tx_time=_config(raw_cfg, "tx_time", exact_number, 1.0),
            end_time=_config(raw_cfg, "end_time", exact_number, 300.0),
            seed=_config(raw_cfg, "seed", exact_int, 1),
            reply_wait_min=rw_min,
            reply_wait_max=_config(raw_cfg, "reply_wait_max", exact_number, 16.0 * rw_min),
        )
        links = []
        for i, entry in enumerate(_array(data.get("links", []), "links")):
            what = f"links[{i}]"
            u, v, intervals = _array(entry, what, 3)
            up = []
            for j, interval in enumerate(_array(intervals, f"{what} intervals")):
                span = f"{what} intervals[{j}]"
                a, b = _array(interval, span, 2)
                up.append((_exact(exact_number, a, span), _exact(exact_number, b, span)))
            links.append(LinkSchedule(edge=edge_key(_node(u, what), _node(v, what)),
                                      up_intervals=tuple(up)))
        keys = []
        for i, pair in enumerate(_array(data.get("keys", []), "keys")):
            what = f"keys[{i}]"
            a, b = _array(pair, what, 2)
            keys.append((_node(a, what), _node(b, what)))
        discoveries = []
        for i, d in enumerate(_array(data.get("discoveries", []), "discoveries")):
            what = f"discoveries[{i}]"
            _object(d, what, DISCOVERY_KEYS)
            discoveries.append((_node(_require(d, "src", what), f"{what} src"),
                                _node(_require(d, "dst", what), f"{what} dst"),
                                _exact(exact_number, d.get("at", 0.0), f"{what} at")))
        mode = data.get("mode", "basic")
        if mode not in ("basic", "augmented"):
            raise ScenarioError(f"unknown mode {mode!r}")
        if (mode == "augmented") != (data.get("metrics") is not None):
            raise ScenarioError("augmented mode requires a metrics section and "
                                "basic mode forbids one")
        metrics = None
        if mode == "augmented":
            m = _object(data["metrics"], "metrics", METRICS_KEYS)
            kind_name = str(_require(m, "kind", "metrics"))
            if kind_name in REJECTED_METRIC_KINDS:
                raise ScenarioError(
                    f"metric kind {kind_name!r} is node-local and has no "
                    f"two-endpoint agreement; it cannot be verified on a link")
            try:
                kind = GKind(kind_name)
            except ValueError:
                raise ScenarioError(f"unknown metric kind {kind_name!r}")
            administrative = m.get("administrative", False)
            if not isinstance(administrative, bool):
                raise ScenarioError(f"metrics: 'administrative' must be true or "
                                    f"false, not {administrative!r}")
            actual = {}
            for i, entry in enumerate(_array(m.get("actual", []), "metrics actual")):
                what = f"metrics actual[{i}]"
                u, v, value = _array(entry, what, 3)
                actual[edge_key(_node(u, what), _node(v, what))] = \
                    _exact(exact_number, value, what)
            metrics = LinkMetricModel(
                kind=kind,
                epsilon=_exact(exact_number, _require(m, "epsilon", "metrics"),
                               "metrics 'epsilon'"),
                delta_tilde=_exact(exact_number, m.get("delta_tilde", 0.0),
                                   "metrics 'delta_tilde'"),
                administrative=administrative,
                actual=actual,
            )
        adversaries = {}
        for node, spec in _object(data.get("adversaries", {}), "adversaries").items():
            _object(spec, f"adversary {node}: spec", ADVERSARY_KEYS)
            try:
                klass = AdversaryClass(spec.get("class", "independent"))
            except ValueError:
                raise ScenarioError(f"adversary {node}: unknown class {spec.get('class')!r}")
            adversaries[node] = AdversarySpec(
                klass=klass,
                attack=str(_require(spec, "attack", f"adversary {node}")),
                params=dict(_object(spec.get("params", {}), f"adversary {node}: params")),
            )
        name = data.get("name", name_hint)
        if type(name) is not str:
            raise ScenarioError(f"name must be a string, not {name!r}")
        scenario = Scenario(
            name=name,
            config=config,
            nodes=nodes,
            links=tuple(links),
            keys=tuple(keys),
            discoveries=tuple(discoveries),
            metrics=metrics,
            adversaries=adversaries,
            expect=dict(_object(data.get("expect", {}), "expect")),
        )
        scenario.validate()
    except ScenarioError:
        raise
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as e:
        raise ScenarioError(f"{name_hint}: malformed scenario ({e})")
    return scenario


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file."""
    p = Path(path)
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ScenarioError(f"{p}: no such scenario file")
    except OSError as e:
        raise ScenarioError(f"{p}: cannot read scenario file: {e.strerror}")
    except UnicodeDecodeError:
        raise ScenarioError(f"{p}: scenario file is not UTF-8 text")
    except json.JSONDecodeError as e:
        raise ScenarioError(f"{p}:{e.lineno}:{e.colno}: parse error: {e.msg}")
    except ValueError as e:  # an integer literal past int's digit limit
        raise ScenarioError(f"{p}: parse error: {e}")
    except RecursionError:
        raise ScenarioError(f"{p}: parse error: arrays or objects nested too deep")
    return scenario_from_dict(data, name_hint=p.stem)


def build(scenario: Scenario, seed: Optional[int] = None) -> Engine:
    """Wire a validated scenario into a ready-to-run engine."""
    cfg = scenario.config if seed is None else replace(scenario.config, seed=seed)
    engine = Engine(cfg, scenario.schedule_map, random.Random(f"run|{cfg.seed}"))
    rings = scenario.key_rings
    qos = None if scenario.metrics is None else QosRuntime(scenario.metrics, cfg.seed)
    for node in scenario.nodes:
        state = NodeState(self_id=node, keys=rings[node])
        spec = scenario.adversaries.get(node)
        if spec is None:
            engine.add_node(node, SrpNode(state, cfg, qos))
            continue
        driver = AdversaryNode(node, spec.klass, scenario.scripts[node], state, cfg,
                               qos, roster=scenario.nodes)
        engine.add_node(node, driver)
        for t in driver.script.spontaneous_times(driver):
            engine.schedule_action(t, node, ("adversary_time",))
    engine.seed_link_changes()
    for src, dst, at in scenario.discoveries:
        engine.schedule_action(at, src, ("initiate", dst))
    return engine
