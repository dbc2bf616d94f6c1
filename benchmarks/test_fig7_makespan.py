"""Bench F7 — regenerates Figure 7 (makespan vs Φ, log-y).

Paper expectation: makespan grows with Φ (linearly once compute
dominates); high efficiency comes at a severe makespan penalty.
"""

import pytest

from repro.experiments import render_fig7
from repro.experiments.fig6 import RATIOS
from repro.runner import Runner


def test_fig7_makespan(benchmark, save_artifact):
    records = benchmark.pedantic(
        Runner(seed=0).run, args=("fig7",), rounds=1, iterations=1).records
    for ratio in RATIOS:
        ms = [r["makespan_analytic_s"] for r in records
              if r["ratio"] == ratio]
        assert ms == sorted(ms)
    # High-phi high-ratio corner: ~150 h (the trade-off).
    worst = max(r["makespan_analytic_s"] for r in records)
    assert worst > 24 * 3600
    for r in records:
        if "makespan_sim_s" in r:
            assert r["makespan_sim_s"] == pytest.approx(
                r["makespan_analytic_s"], rel=0.45)
    save_artifact("fig7_makespan", render_fig7(records))
