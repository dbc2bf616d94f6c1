"""Bench F6 — regenerates Figure 6 (efficiency vs Φ).

Paper expectation: efficiency rises with Φ and with n/N; n/N ≥ 100
yields very high efficiency for practical applications.  The vector
simulation (recruitment + carousel wakeup + pull execution) tracks
Equation 2.
"""

import pytest

from repro.experiments import render_fig6
from repro.experiments.fig6 import RATIOS
from repro.runner import Runner


def test_fig6_efficiency(benchmark, save_artifact):
    records = benchmark.pedantic(
        Runner(seed=0).run, args=("fig6",), rounds=1, iterations=1).records
    for ratio in RATIOS:
        es = [r["efficiency_analytic"] for r in records
              if r["ratio"] == ratio]
        assert es == sorted(es)
    assert all(r["efficiency_analytic"] > 0.9 for r in records
               if r["ratio"] >= 100 and r["phi"] >= 1000)
    for r in records:
        if "efficiency_sim" in r:
            assert r["efficiency_sim"] == pytest.approx(
                r["efficiency_analytic"], abs=0.12)
    save_artifact("fig6_efficiency", render_fig6(records))
