"""Tests for the wakeup sweep and Figure 6/7 experiments, on the
registry records that ``python -m repro {wakeup,fig6,fig7}`` renders."""

import numpy as np
import pytest

from repro.analysis import wakeup_time
from repro.experiments import (
    event_tier_wakeup_mean,
    render_fig6,
    render_fig7,
    render_wakeup,
)
from repro.experiments.fig6 import PHI_GRID, RATIOS
from repro.net.message import MEGABYTE
from repro.runner import Runner


# -- wakeup ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def wakeup_records():
    return Runner(seed=0).run("wakeup").records


def test_wakeup_sweep_covers_grid(wakeup_records):
    assert len(wakeup_records) == 6 * 3  # 6 image sizes x 3 betas


def test_wakeup_vector_close_to_analytic(wakeup_records):
    for r in wakeup_records:
        # DSM-CC + Xlet overheads inflate W slightly above 1.5 I/beta.
        assert r["analytic_s"] <= r["vector_s"] < 1.35 * r["analytic_s"]


def test_wakeup_event_close_to_vector(wakeup_records):
    for r in wakeup_records:
        assert r["event_s"] == pytest.approx(r["vector_s"], rel=0.2)


def test_wakeup_scales_with_I_and_inverse_beta(wakeup_records):
    by_key = {(r["beta_mbps"], r["image_mb"]): r["vector_s"]
              for r in wakeup_records}
    assert by_key[(1.0, 16)] > by_key[(1.0, 8)] > by_key[(1.0, 1)]
    assert by_key[(19.0, 8)] < by_key[(5.0, 8)] < by_key[(1.0, 8)]


def test_wakeup_paper_headline_number(wakeup_records):
    """8 MB @ 1 Mbps -> ~100 s ('less than a few minutes' at millions
    of nodes)."""
    r = next(x for x in wakeup_records
             if x["image_mb"] == 8 and x["beta_mbps"] == 1.0)
    assert 90 < r["vector_s"] < 140
    assert r["analytic_s"] == pytest.approx(
        wakeup_time(8 * MEGABYTE, 1e6))


def test_event_tier_wakeup_standalone():
    w = event_tier_wakeup_mean(1 * MEGABYTE, 1e6, n_readers=20, seed=1)
    assert w == pytest.approx(1.5 * MEGABYTE / 1e6, rel=0.25)


def test_render_wakeup(wakeup_records):
    out = render_wakeup(wakeup_records)
    assert "wakeup overhead" in out
    assert "8 MB @ 1 Mbps" in out


# -- Figure 6 -------------------------------------------------------------------

@pytest.fixture(scope="module")
def fig6_records():
    return Runner(seed=0).run("fig6").records


def test_fig6_grid_coverage(fig6_records):
    assert len(fig6_records) == len(PHI_GRID) * len(RATIOS)


def test_fig6_efficiency_monotone_in_phi(fig6_records):
    for ratio in RATIOS:
        es = [r["efficiency_analytic"] for r in fig6_records
              if r["ratio"] == ratio]
        assert es == sorted(es)


def test_fig6_efficiency_monotone_in_ratio(fig6_records):
    for phi in PHI_GRID:
        es = [r["efficiency_analytic"] for r in fig6_records
              if r["phi"] == phi]
        assert es == sorted(es)


def test_fig6_ratio_100_reaches_high_efficiency(fig6_records):
    """Paper: 'a ratio above 100 is generally enough to yield very high
    efficiency for most practical applications'."""
    high_phi = [r for r in fig6_records
                if r["ratio"] >= 100 and r["phi"] >= 1000]
    assert all(r["efficiency_analytic"] > 0.9 for r in high_phi)


def test_fig6_simulation_tracks_analytic(fig6_records):
    for r in fig6_records:
        if "efficiency_sim" not in r:
            continue
        # Recruitment is binomial (fleet size varies around the target)
        # and the carousel adds overheads, so allow a modest band.
        assert r["efficiency_sim"] == pytest.approx(
            r["efficiency_analytic"], abs=0.12)


def test_fig6_render(fig6_records):
    out = render_fig6(fig6_records)
    assert "Figure 6" in out
    assert "n/N=1000" in out
    assert "cross-check" in out


# -- Figure 7 ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def fig7_records():
    return Runner(seed=0).run("fig7").records


def test_fig7_makespan_monotone_in_phi(fig7_records):
    for ratio in RATIOS:
        ms = [r["makespan_analytic_s"] for r in fig7_records
              if r["ratio"] == ratio]
        assert ms == sorted(ms)


def test_fig7_efficiency_penalises_makespan(fig6_records, fig7_records):
    """The Section 5.2.2 trade-off: the (ratio, phi) points with the
    highest efficiency have the longest makespans."""
    best_eff = max(fig6_records, key=lambda r: r["efficiency_analytic"])
    matching = next(r for r in fig7_records
                    if r["ratio"] == best_eff["ratio"]
                    and r["phi"] == best_eff["phi"])
    all_ms = [r["makespan_analytic_s"] for r in fig7_records]
    assert matching["makespan_analytic_s"] == max(all_ms)


def test_fig7_simulation_tracks_analytic(fig7_records):
    for r in fig7_records:
        if "makespan_sim_s" not in r:
            continue
        assert r["makespan_sim_s"] == pytest.approx(
            r["makespan_analytic_s"], rel=0.45)


def test_fig7_render(fig7_records):
    out = render_fig7(fig7_records)
    assert "Figure 7" in out
    assert "log-y" in out
