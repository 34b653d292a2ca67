"""Tests: the headline P99-vs-clone-factor experiment and its model."""

import math

import pytest

from repro.experiments import frontdoor_p99
from repro.frontdoor.model import (
    effective_utilization,
    knee_clone_factor,
    mean_sojourn_ms,
    predicted_p99_curve,
    quantile_sojourn_ms,
)

# ----------------------------------------------------------------------
# the analytic processor-sharing model
# ----------------------------------------------------------------------


def test_effective_utilization_grows_with_waste():
    assert effective_utilization(0.3, 1, 0.0) == pytest.approx(0.3)
    # Half the served work wasted doubles the effective load.
    assert effective_utilization(0.3, 2, 0.5) == pytest.approx(0.6)


def test_mean_sojourn_diverges_at_saturation():
    assert mean_sojourn_ms(10.0, 0.5) == pytest.approx(20.0)
    assert math.isinf(mean_sojourn_ms(10.0, 1.0))
    assert math.isinf(mean_sojourn_ms(10.0, 1.5))
    # d replicas racing the same exponential demand: mean divides by d.
    assert mean_sojourn_ms(10.0, 0.5, d=2) == pytest.approx(10.0)


def test_p99_is_ln100_times_the_mean():
    mean = mean_sojourn_ms(3.0, 0.2)
    assert quantile_sojourn_ms(3.0, 0.2, q=0.99) \
        == pytest.approx(math.log(100.0) * mean)


def test_predicted_curve_shapes():
    curve = predicted_p99_curve(3.0, 0.15, (1, 2, 8),
                                {1: 0.0, 2: 0.45, 8: 0.95})
    assert len(curve) == 3
    # Low rho: cloning helps at first...
    assert curve[2] < curve[1]
    # ...but enough waste saturates the servers (the capacity knee).
    assert math.isinf(curve[8])


def test_knee_clone_factor_moves_with_load():
    light = knee_clone_factor(0.10, 0.45)
    heavy = knee_clone_factor(0.40, 0.45)
    assert light > heavy >= 1


# ----------------------------------------------------------------------
# the experiment runner (CI-sized)
# ----------------------------------------------------------------------

#: The quick sweep's sha256 (both clone factors and the composed run).
QUICK_FINGERPRINT = (
    "35c31ef94ab2eed3d717955da4aaf3752f4c1e948a5d8c1ee05b20d60ba19553")


@pytest.fixture(scope="module")
def quick():
    return frontdoor_p99.run_quick(seed=0xC10E)


def test_quick_run_is_deterministic(quick):
    again = frontdoor_p99.run_quick(seed=0xC10E)
    assert again.fingerprint == quick.fingerprint == QUICK_FINGERPRINT
    assert [p.fingerprint for p in again.points] \
        == [p.fingerprint for p in quick.points]


def test_quick_run_conserves_and_completes(quick):
    assert quick.violations == []
    assert quick.total_requests >= 10_000
    for point in quick.points:
        assert point.completed + point.failed + point.timed_out \
            == point.requests


def test_cloning_improves_the_tail_at_low_load(quick):
    baseline = quick.point(1)
    cloned = quick.point(2)
    assert cloned.latency_p99_ms < baseline.latency_p99_ms
    # d=1 wastes nothing; d=2 pays for the tail with cancelled work.
    assert baseline.waste_fraction == pytest.approx(0.0, abs=1e-9)
    assert cloned.waste_fraction > 0.2
    assert cloned.rho_eff > baseline.rho_eff


def test_model_tracks_the_measurement(quick):
    for point in quick.stable_points():
        assert point.predicted_p99_ms > 0
        # Same decade: the analytic M/M/1-PS curve is a sanity check,
        # not a fit (the simulation load is per-server, not pooled).
        assert (point.predicted_p99_ms / 10.0 < point.latency_p99_ms
                < point.predicted_p99_ms * 10.0)


def test_composed_run_survives_chaos(quick):
    composed = quick.composed
    # Its violations were folded into the run-level list (empty above).
    assert composed["hosts_killed"] == 1
    assert composed["children_replaced"] > 0
    assert composed["completed"] > 0.9 * composed["requests"]


def test_format_result_renders_the_table(quick):
    text = frontdoor_p99.format_result(quick)
    assert "P99 vs clone factor" in text
    assert "model p99" in text
    assert "composed (autoscale + host-kill)" in text
    assert "capacity knee" in text
    assert len(quick.fingerprint) == 64


def test_result_round_trips_to_dict(quick):
    payload = quick.to_dict()
    assert payload["seed"] == 0xC10E
    assert len(payload["points"]) == len(quick.points)
    assert payload["fingerprint"] == quick.fingerprint
