"""Tests for churn-aware capacity at the vector tier."""

import numpy as np
import pytest

from repro.errors import AnalysisError
from repro.vector.churn import (
    effective_capacity,
    makespan_under_churn,
    on_session_survival,
)
from repro.vector.executor import makespan_waterfill
from repro.workloads import ChurnModel


MODEL = ChurnModel(mean_on_s=600.0, mean_off_s=300.0)


def sample_session_survival(model: ChurnModel, t: float, n: int,
                            rng: np.random.Generator) -> float:
    """Monte-Carlo oracle of :func:`on_session_survival`: the share of
    ``n`` exponential residual ON sessions that outlast ``t``."""
    if n <= 0:
        raise AnalysisError("n must be > 0")
    residual = rng.exponential(model.mean_on_s, size=n)
    return float((residual > t).mean())


def test_survival_closed_form_matches_monte_carlo():
    rng = np.random.default_rng(0)
    for t in (0.0, 100.0, 600.0, 2000.0):
        analytic = on_session_survival(MODEL, t)
        sampled = sample_session_survival(MODEL, t, 200_000, rng)
        assert sampled == pytest.approx(analytic, abs=0.01)


def test_survival_boundaries_and_validation():
    assert on_session_survival(MODEL, 0.0) == 1.0
    assert on_session_survival(MODEL, 1e9) < 1e-6
    with pytest.raises(AnalysisError):
        on_session_survival(MODEL, -1.0)
    with pytest.raises(AnalysisError):
        sample_session_survival(MODEL, 1.0, 0, np.random.default_rng(0))


def test_effective_capacity_decays_to_steady_state():
    assert effective_capacity(MODEL, 0.0) == pytest.approx(1.0)
    long_run = effective_capacity(MODEL, 1e7)
    assert long_run == pytest.approx(MODEL.steady_state_availability,
                                     abs=1e-6)
    # Monotone decay toward a_inf from above.
    samples = [effective_capacity(MODEL, t) for t in (0, 60, 300, 3000)]
    assert samples == sorted(samples, reverse=True)
    with pytest.raises(AnalysisError):
        effective_capacity(MODEL, -1.0)


def test_no_churn_equals_waterfill():
    ready = np.zeros(10)
    base = makespan_waterfill(ready, 100, 5.0)
    churned = makespan_under_churn(ready, 100, 5.0, None)
    assert churned.finish_time == base.finish_time


def test_churn_inflates_makespan():
    ready = np.zeros(50)
    base = makespan_waterfill(ready, 5000, 5.0)
    churned = makespan_under_churn(ready, 5000, 5.0, MODEL)
    assert churned.finish_time > base.finish_time
    # Inflation bounded by the steady-state availability.
    a_inf = MODEL.steady_state_availability
    assert churned.finish_time < base.finish_time / a_inf * 1.2


def test_short_jobs_barely_affected():
    """A job much shorter than the mean ON session sees ~full capacity."""
    ready = np.zeros(100)
    base = makespan_waterfill(ready, 100, 1.0)  # ~1 s of work each
    churned = makespan_under_churn(ready, 100, 1.0, MODEL)
    assert churned.finish_time == pytest.approx(base.finish_time, rel=0.02)


def test_recomposition_lag_costs_more():
    ready = np.zeros(50)
    fast = makespan_under_churn(ready, 5000, 5.0, MODEL,
                                recomposition_lag_s=0.0)
    slow = makespan_under_churn(ready, 5000, 5.0, MODEL,
                                recomposition_lag_s=300.0)
    assert slow.finish_time >= fast.finish_time
    with pytest.raises(AnalysisError):
        makespan_under_churn(ready, 10, 1.0, MODEL,
                             recomposition_lag_s=-1.0)


def test_heavier_churn_hurts_more():
    ready = np.zeros(50)
    light = makespan_under_churn(
        ready, 5000, 5.0, ChurnModel(mean_on_s=3600, mean_off_s=60))
    heavy = makespan_under_churn(
        ready, 5000, 5.0, ChurnModel(mean_on_s=300, mean_off_s=600))
    assert heavy.finish_time > light.finish_time
