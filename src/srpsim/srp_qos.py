"""Metric-carrying route discovery: per-link measurements, the endpoint
consistency tolerance, route-metric aggregation, and the accuracy bounds.

Metric values travel on the wire as fixed-point scaled integers (micro
units), so equality checks on recomputed aggregates are exact and the
authenticator covers a bit-stable encoding.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

from .simcore import edge_key

SCALE = 10 ** 6


def to_scaled(x: float) -> int:
    return round(x * SCALE)


def from_scaled(i: int) -> float:
    return i / SCALE


class GKind(str, Enum):
    """Route-metric aggregate: sum, max, min, or product (the product runs as
    a sum after a log transform, so its bounds are the additive ones in the
    log domain)."""

    ADD = "add"
    MAX = "max"
    MIN = "min"
    MUL = "mul"


def route_metric(kind: GKind, metrics: Sequence[float]) -> float:
    """Aggregate per-link metrics into the route metric."""
    if not metrics:
        raise ValueError("route metric over an empty metric list")
    if kind == GKind.ADD:
        return float(sum(metrics))
    if kind == GKind.MAX:
        return float(max(metrics))
    if kind == GKind.MIN:
        return float(min(metrics))
    if kind == GKind.MUL:
        if any(m <= 0 for m in metrics):
            raise ValueError("product route metric requires strictly positive metrics")
        return math.exp(sum(math.log(m) for m in metrics))
    raise ValueError(f"unknown aggregate {kind}")


def delta_good(kind: GKind, n: int, epsilon: float, delta_tilde: float) -> float:
    """Accuracy tolerance for a route of n links.

    Additive: n^2*eps + n*dtil.  Max and min: n*eps + dtil.  Product uses the
    additive bound, interpreted in the log domain.
    """
    if n < 1:
        raise ValueError("a route has at least one link")
    if epsilon < 0 or delta_tilde < 0:
        raise ValueError("tolerances must be nonnegative")
    if kind in (GKind.ADD, GKind.MUL):
        return n * n * epsilon + n * delta_tilde
    return n * epsilon + delta_tilde


@dataclass
class LinkMetricModel:
    """A scenario's metric definition: the aggregate, the consistency
    tolerance epsilon, the measurement error bound delta_tilde, whether the
    values are administrative (exact, no measurement), and the actual link
    values.  Validated on construction; read-only afterwards."""

    kind: GKind
    epsilon: float
    delta_tilde: float = 0.0
    administrative: bool = False
    actual: dict = field(default_factory=dict)   # edge_key -> float

    def __post_init__(self):
        # every value is carried as a scaled int
        for name in ("epsilon", "delta_tilde"):
            if not math.isfinite(getattr(self, name) * SCALE):
                raise ValueError(f"{name} must be finite once scaled to micro units")
        if self.epsilon <= 0 and not self.administrative:
            raise ValueError("epsilon must be > 0 outside administrative mode")
        if self.delta_tilde < 0:
            raise ValueError("delta_tilde must be >= 0")
        if self.administrative and self.delta_tilde != 0:
            raise ValueError("administrative metrics admit no measurement error")
        self.actual = {edge_key(*e): float(v) for e, v in self.actual.items()}
        if not all(math.isfinite(v * SCALE) for v in self.actual.values()):
            raise ValueError("actual link metrics must be finite once scaled "
                             "to micro units")
        if self.kind == GKind.MUL:
            if any(v <= 0 for v in self.actual.values()):
                raise ValueError("product metrics must be strictly positive")
            try:  # the largest measurement: max(actual) * e^delta_tilde, scaled
                top = max(self.actual.values(), default=1.0) * math.exp(self.delta_tilde) * SCALE
            except OverflowError:  # e^delta_tilde is no float
                top = math.inf
            if not math.isfinite(top):
                raise ValueError("max(actual) * e^delta_tilde must be finite once scaled")

    def actual_scaled(self, edge) -> Optional[int]:
        v = self.actual.get(edge_key(*edge))
        return None if v is None else to_scaled(v)


class QosRuntime:
    """One run's measurement apparatus over a metric definition, in scaled
    integers: per-node measurements, consistency checks, and prefix
    aggregation.

    Correct nodes see the actual value plus a deterministic offset, seeded
    by the run, bounded by delta_tilde.  A node listed in `biases` (an
    adversary that skews its apparatus) sees the actual value plus its bias
    on every incident link, for reporting and for its own consistency checks
    alike.
    """

    def __init__(self, model: LinkMetricModel, seed: int = 0):
        self.model = model
        self.seed = seed
        self.biases: dict = {}   # node -> scaled-int bias
        self.kind = model.kind
        self.epsilon_scaled = to_scaled(model.epsilon)
        self.delta_scaled = to_scaled(model.delta_tilde)

    def _noise(self, node: str, e) -> float:
        """This node's fixed apparatus offset on link e, uniform over [-1, 1)."""
        h = hashlib.blake2b(f"noise|{self.seed}|{node}|{e[0]}|{e[1]}".encode(),
                            digest_size=8).digest()
        u = int.from_bytes(h, "big") / 2 ** 64  # uniform [0, 1)
        return 2.0 * u - 1.0

    def measure_scaled(self, node: str, edge) -> Optional[int]:
        e = edge_key(*edge)
        if node not in e:
            raise ValueError(f"{node} is not incident to edge {e}")
        base = self.model.actual_scaled(e)
        if base is None:
            return None
        bias = self.biases.get(node)
        if bias is not None:
            return base + bias
        delta_tilde = self.model.delta_tilde
        if delta_tilde == 0:
            return base
        noise = self._noise(node, e) * delta_tilde
        if self.kind == GKind.MUL:
            # Multiplicative noise keeps values positive and makes the
            # tolerance meaningful in the log domain.
            return to_scaled(from_scaled(base) * math.exp(noise))
        return base + round(noise * SCALE)

    def consistent(self, own: Optional[int], reported: Optional[int]) -> bool:
        if own is None or reported is None:
            return False
        if self.model.administrative:
            return own == reported
        if self.kind == GKind.MUL:
            if own <= 0 or reported <= 0:
                return False
            return abs(math.log(from_scaled(own)) - math.log(from_scaled(reported))) \
                < self.model.epsilon
        return abs(own - reported) < self.epsilon_scaled

    def aggregate_scaled(self, metrics_scaled: Sequence[int]) -> int:
        if not metrics_scaled:
            raise ValueError("aggregate over an empty metric list")
        if self.kind == GKind.ADD:
            return sum(metrics_scaled)
        if self.kind == GKind.MAX:
            return max(metrics_scaled)
        if self.kind == GKind.MIN:
            return min(metrics_scaled)
        prod = 1.0
        for m in metrics_scaled:
            prod *= from_scaled(m)
        # a product no scaled float holds equals no aggregate: a 4.2.2 check discards
        prod *= SCALE
        return round(prod) if math.isfinite(prod) else math.nan
