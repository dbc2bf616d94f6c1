"""Tests for the Section 5 analytical models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    OddCIParameters,
    efficiency_model,
    makespan_model,
    p_from_phi,
    wakeup_time,
)
from repro.errors import AnalysisError
from repro.net.message import KILOBYTE, MEGABYTE


def phi(p_seconds: float, io_bits: float, delta_bps: float) -> float:
    """Suitability Φ = δ·p̄ / (s̄+r̄) (the corrected form of
    :mod:`repro.analysis.models`): the oracle :func:`p_from_phi`
    inverts."""
    if p_seconds <= 0:
        raise AnalysisError("p_seconds must be > 0")
    if io_bits <= 0:
        raise AnalysisError("io_bits must be > 0")
    if delta_bps <= 0:
        raise AnalysisError("delta_bps must be > 0")
    return delta_bps * p_seconds / io_bits


def test_wakeup_time_formula():
    # 8 MB at 1 Mbps: 1.5 * 8*2^20*8 / 1e6 ~ 100.7 s
    w = wakeup_time(8 * MEGABYTE, 1e6)
    assert w == pytest.approx(1.5 * 8 * MEGABYTE / 1e6)
    with pytest.raises(AnalysisError):
        wakeup_time(0, 1e6)
    with pytest.raises(AnalysisError):
        wakeup_time(1e6, 0)


def test_wakeup_scales_linearly_in_I_and_inverse_beta():
    assert wakeup_time(2 * MEGABYTE, 1e6) == pytest.approx(
        2 * wakeup_time(MEGABYTE, 1e6))
    assert wakeup_time(MEGABYTE, 2e6) == pytest.approx(
        wakeup_time(MEGABYTE, 1e6) / 2)


def test_makespan_decomposition():
    params = OddCIParameters(beta_bps=1e6, delta_bps=150e3)
    m = makespan_model(image_bits=10 * MEGABYTE, n_tasks=1000, n_nodes=10,
                       io_bits=KILOBYTE, p_seconds=60.0, params=params)
    w = wakeup_time(10 * MEGABYTE, 1e6)
    per_task = KILOBYTE / 150e3 + 60.0
    assert m == pytest.approx(w + 100 * per_task)


def test_makespan_validation():
    with pytest.raises(AnalysisError):
        makespan_model(image_bits=1, n_tasks=0, n_nodes=1, io_bits=0,
                       p_seconds=1)
    with pytest.raises(AnalysisError):
        makespan_model(image_bits=1, n_tasks=1, n_nodes=1, io_bits=-1,
                       p_seconds=1)
    with pytest.raises(AnalysisError):
        makespan_model(image_bits=1, n_tasks=1, n_nodes=1, io_bits=0,
                       p_seconds=0)
    with pytest.raises(AnalysisError):
        OddCIParameters(beta_bps=0)


def test_efficiency_bounds_and_examples():
    e = efficiency_model(image_bits=10 * MEGABYTE, n_tasks=10_000,
                         n_nodes=100, io_bits=KILOBYTE, p_seconds=5460.0)
    assert 0.9 < e <= 1.0  # paper: n/N=100, phi=1e5 -> very efficient


def test_phi_roundtrip_and_paper_examples():
    delta = 150_000.0
    p = p_from_phi(1.0, KILOBYTE, delta)
    assert p == pytest.approx(KILOBYTE / delta)  # ~54.6 ms
    assert 0.05 < p < 0.06
    p2 = p_from_phi(1e5, KILOBYTE, delta)
    assert 5000 < p2 < 6000  # ~1.5 h
    assert phi(p2, KILOBYTE, delta) == pytest.approx(1e5)


def test_phi_validation():
    with pytest.raises(AnalysisError):
        phi(0, 1, 1)
    with pytest.raises(AnalysisError):
        p_from_phi(0, 1, 1)


def test_throughputs():
    """With no wakeup or transfer cost, Equation 1 gives one node's
    throughput 1/p̄ and N nodes' ideal throughput N/p̄."""
    def throughput(n_nodes, p_seconds, n_tasks=10**6):
        return n_tasks / makespan_model(
            image_bits=1e-9, n_tasks=n_tasks, n_nodes=n_nodes, io_bits=0,
            p_seconds=p_seconds)

    assert throughput(1, 0.5) == pytest.approx(2.0, rel=1e-12)
    assert throughput(10, 0.5) == pytest.approx(20.0, rel=1e-12)
    with pytest.raises(AnalysisError):
        throughput(1, 0)
    with pytest.raises(AnalysisError):
        throughput(0, 1)


@given(
    n_tasks=st.integers(min_value=1, max_value=10**7),
    n_nodes=st.integers(min_value=1, max_value=10**6),
    p=st.floats(min_value=1e-3, max_value=1e5),
    io_kb=st.floats(min_value=0.0, max_value=100.0),
)
@settings(max_examples=200, deadline=None)
def test_property_efficiency_in_unit_interval(n_tasks, n_nodes, p, io_kb):
    e = efficiency_model(image_bits=10 * MEGABYTE, n_tasks=n_tasks,
                         n_nodes=n_nodes, io_bits=io_kb * KILOBYTE,
                         p_seconds=p)
    assert 0.0 < e <= 1.0 + 1e-12


@given(
    n_tasks=st.integers(min_value=1, max_value=10**6),
    p=st.floats(min_value=1e-3, max_value=1e4),
)
@settings(max_examples=100, deadline=None)
def test_property_makespan_monotonicity(n_tasks, p):
    common = dict(image_bits=MEGABYTE, io_bits=KILOBYTE, p_seconds=p)
    m1 = makespan_model(n_tasks=n_tasks, n_nodes=10, **common)
    m2 = makespan_model(n_tasks=n_tasks + 100, n_nodes=10, **common)
    m3 = makespan_model(n_tasks=n_tasks, n_nodes=20, **common)
    assert m2 > m1      # more tasks -> longer
    assert m3 < m1      # more nodes -> shorter
    m4 = makespan_model(n_tasks=n_tasks, n_nodes=10, image_bits=MEGABYTE,
                        io_bits=KILOBYTE, p_seconds=p * 2)
    assert m4 > m1      # heavier tasks -> longer


def test_efficiency_increases_with_phi_and_n_over_N():
    """The qualitative content of Figure 6."""
    delta = 150_000.0
    es = []
    for phi_v in (1.0, 10.0, 100.0, 1000.0):
        p = p_from_phi(phi_v, KILOBYTE, delta)
        es.append(efficiency_model(
            image_bits=10 * MEGABYTE, n_tasks=10_000, n_nodes=100,
            io_bits=KILOBYTE, p_seconds=p))
    assert es == sorted(es)  # monotone in phi
    # and monotone in n/N at fixed phi:
    p = p_from_phi(100.0, KILOBYTE, delta)
    e_ratio = [efficiency_model(
        image_bits=10 * MEGABYTE, n_tasks=ratio * 100, n_nodes=100,
        io_bits=KILOBYTE, p_seconds=p) for ratio in (1, 10, 100, 1000)]
    assert e_ratio == sorted(e_ratio)


def test_fig6_crossing_statement():
    """Quantify the paper's 'ratio above 100 generally enough': the phi
    at which E crosses 0.9 for n/N=100 vs n/N=10."""

    def crossing(ratio):
        phis = np.logspace(0, 5, 31)
        es = [efficiency_model(
            image_bits=10 * MEGABYTE, n_tasks=int(ratio * 100),
            n_nodes=100, io_bits=float(KILOBYTE),
            p_seconds=p_from_phi(float(f), float(KILOBYTE), 150e3))
            for f in phis]
        assert es == sorted(es) and es[0] < 0.9 <= es[-1]
        return float(np.interp(0.9, es, phis))

    cross100, cross10 = crossing(100), crossing(10)
    assert cross100 < cross10  # larger n/N crosses high efficiency sooner
    assert cross100 < 1000     # practical phi for n/N=100


def test_event_vs_analytic_wakeup_within_tolerance():
    """Event-tier wakeup against the model's 1.5 I/beta."""
    from repro.experiments import event_tier_wakeup_mean

    images = [1 * MEGABYTE, 4 * MEGABYTE]
    analytic = np.array([wakeup_time(i, 1e6) for i in images])
    measured = np.array([event_tier_wakeup_mean(i, 1e6, n_readers=25,
                                                seed=1) for i in images])
    # Small images pay proportionally more PNA-Xlet/config/DSM-CC
    # overhead (the 1 MB point runs ~17% above the bare model).
    assert np.all(np.abs(measured - analytic) <= 0.20 * analytic)
    assert (measured - analytic).mean() > 0  # overheads only inflate W
