"""Metric machinery: aggregation, accuracy tolerances, endpoint consistency,
measurement bounds, and the product/sum duality."""

import math

import pytest
from hypothesis import given, strategies as st

from srpsim import (GKind, LinkMetricModel, QosRuntime, delta_good,
                    route_metric, to_scaled)


class TestRouteMetric:
    def test_sum(self):
        assert route_metric(GKind.ADD, [1, 2, 3]) == 6

    def test_max(self):
        assert route_metric(GKind.MAX, [1, 5, 2]) == 5

    def test_min(self):
        assert route_metric(GKind.MIN, [1, 5, 2]) == 1

    def test_product_via_log_transform(self):
        assert route_metric(GKind.MUL, [2, 4]) == pytest.approx(8)

    def test_empty_list_invalid(self):
        with pytest.raises(ValueError):
            route_metric(GKind.ADD, [])

    def test_nonpositive_product_invalid(self):
        with pytest.raises(ValueError):
            route_metric(GKind.MUL, [2, 0])

    @given(st.lists(st.floats(0.1, 10), min_size=1, max_size=8))
    def test_product_equals_exp_of_log_sum(self, metrics):
        direct = route_metric(GKind.MUL, metrics)
        via_add = math.exp(route_metric(GKind.ADD, [math.log(m) for m in metrics]))
        assert direct == pytest.approx(via_add, rel=1e-9)


class TestDeltaGood:
    def test_additive_bound(self):
        assert delta_good(GKind.ADD, 3, 0.1, 0.05) == pytest.approx(1.05)

    def test_max_bound(self):
        assert delta_good(GKind.MAX, 4, 0.1, 0.0) == pytest.approx(0.4)

    def test_min_bound_matches_max_form(self):
        assert delta_good(GKind.MIN, 4, 0.1, 0.0) == delta_good(GKind.MAX, 4, 0.1, 0.0)

    def test_degenerate_zero(self):
        assert delta_good(GKind.ADD, 1, 0.0, 0.0) == 0.0

    def test_product_uses_additive_form(self):
        assert delta_good(GKind.MUL, 3, 0.1, 0.05) == delta_good(GKind.ADD, 3, 0.1, 0.05)

    def test_zero_links_invalid(self):
        with pytest.raises(ValueError):
            delta_good(GKind.ADD, 0, 0.1, 0.0)


def _consistent(own, reported, **model):
    q = QosRuntime(LinkMetricModel(kind=GKind.ADD, epsilon=0.1, **model))
    return q.consistent(to_scaled(own), to_scaled(reported))


class TestConsistency:
    def test_within_tolerance(self):
        assert _consistent(1.0, 1.05)

    def test_at_or_beyond_tolerance(self):
        assert not _consistent(1.0, 1.2)
        assert not _consistent(1.0, 1.1)  # strict

    def test_administrative_requires_exact_equality(self):
        assert _consistent(1.0, 1.0, administrative=True)
        assert not _consistent(1.0, 1.000001, administrative=True)  # one scaled unit


class TestMeasurement:
    def test_zero_noise_returns_actual(self):
        q = QosRuntime(LinkMetricModel(kind=GKind.ADD, epsilon=0.1, delta_tilde=0.0,
                                       actual={("a", "b"): 2.0}), 3)
        assert q.measure_scaled("a", ("a", "b")) == to_scaled(2.0)

    def test_noise_is_bounded_and_repeatable(self):
        q = QosRuntime(LinkMetricModel(kind=GKind.ADD, epsilon=0.1, delta_tilde=0.1,
                                       actual={("a", "b"): 2.0}), 3)
        v1 = q.measure_scaled("a", ("a", "b"))
        v2 = q.measure_scaled("a", ("a", "b"))
        assert v1 == v2
        assert to_scaled(1.9) <= v1 <= to_scaled(2.1)

    def test_endpoints_measure_independently(self):
        q = QosRuntime(LinkMetricModel(kind=GKind.ADD, epsilon=0.1, delta_tilde=0.1,
                                       actual={("a", "b"): 2.0}), 5)
        va = q.measure_scaled("a", ("a", "b"))
        vb = q.measure_scaled("b", ("a", "b"))
        assert abs(va - to_scaled(2.0)) <= to_scaled(0.1)
        assert abs(vb - to_scaled(2.0)) <= to_scaled(0.1)

    def test_administrative_mode_is_exact_for_both_endpoints(self):
        q = QosRuntime(LinkMetricModel(kind=GKind.ADD, epsilon=0.1, delta_tilde=0.0,
                                       administrative=True,
                                       actual={("a", "b"): 3.0}), 3)
        assert q.measure_scaled("a", ("a", "b")) == to_scaled(3.0)
        assert q.measure_scaled("b", ("a", "b")) == to_scaled(3.0)

    def test_non_incident_node_invalid(self):
        q = QosRuntime(LinkMetricModel(kind=GKind.ADD, epsilon=0.1,
                                       actual={("a", "b"): 2.0}))
        with pytest.raises(ValueError):
            q.measure_scaled("c", ("a", "b"))

    def test_administrative_with_noise_rejected(self):
        with pytest.raises(ValueError):
            LinkMetricModel(kind=GKind.ADD, epsilon=0.1, delta_tilde=0.1,
                            administrative=True)

    def test_bias_overrides_apparatus_on_all_incident_links(self):
        q = QosRuntime(LinkMetricModel(kind=GKind.ADD, epsilon=0.1, delta_tilde=0.0,
                                       actual={("a", "b"): 2.0, ("b", "c"): 1.0}), 3)
        q.biases["b"] = to_scaled(0.09)
        assert q.measure_scaled("b", ("a", "b")) == to_scaled(2.09)
        assert q.measure_scaled("b", ("b", "c")) == to_scaled(1.09)
        assert q.measure_scaled("a", ("a", "b")) == to_scaled(2.0)


class TestAggregateScaled:
    def test_add_is_exact_integer_sum(self):
        q = QosRuntime(LinkMetricModel(kind=GKind.ADD, epsilon=0.1))
        assert q.aggregate_scaled((to_scaled(0.1),) * 3) == to_scaled(0.3)

    def test_min_max(self):
        for kind, want in ((GKind.MAX, 2.0), (GKind.MIN, 0.5)):
            q = QosRuntime(LinkMetricModel(kind=kind, epsilon=0.1))
            assert q.aggregate_scaled((to_scaled(0.5), to_scaled(2.0))) == to_scaled(want)

    def test_mul_quantizes_product(self):
        q = QosRuntime(LinkMetricModel(kind=GKind.MUL, epsilon=0.1))
        assert q.aggregate_scaled((to_scaled(2.0), to_scaled(4.0))) == to_scaled(8.0)


_MUL = QosRuntime(LinkMetricModel(kind=GKind.MUL, epsilon=0.1))


@pytest.mark.parametrize("call, expected", [
    (lambda: route_metric("bogus", [1.0]), "unknown aggregate bogus"),
    (lambda: delta_good(GKind.ADD, 2, 0.1, -0.05), "tolerances must be nonnegative"),
    (lambda: _MUL.consistent(0, to_scaled(1.0)), False),
    (lambda: _MUL.aggregate_scaled([]), "aggregate over an empty metric list"),
    (lambda: LinkMetricModel(kind=GKind.ADD, epsilon=0.0),
     "epsilon must be > 0 outside administrative mode"),
    (lambda: _MUL.measure_scaled("a", ("a", "b")), None),
    (lambda: _MUL.consistent(None, to_scaled(1.0)), False),
], ids=["unknown-aggregate", "negative-tolerance", "nonpositive-product-entry",
        "aggregate-of-nothing", "zero-epsilon", "edge-without-actual-value",
        "missing-reading"])
def test_guard_on_input_no_run_yields(call, expected):
    # a string is the ValueError's message
    if isinstance(expected, str):
        with pytest.raises(ValueError, match=expected):
            call()
    else:
        assert call() == expected
