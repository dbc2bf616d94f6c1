"""Bench W — regenerates the Section 5.1 wakeup-overhead study.

Paper expectation: W = 1.5·I/β; ≈ 100 s for an 8 MB image at 1 Mbps,
independent of fleet size.  Analytic, vector (10⁵ receivers) and event
tiers agree.
"""

import pytest

from repro.experiments import render_wakeup
from repro.runner import Runner


def test_wakeup_overhead(benchmark, save_artifact):
    records = benchmark.pedantic(
        Runner(seed=0).run, args=("wakeup",), rounds=1, iterations=1).records
    for r in records:
        assert r["analytic_s"] <= r["vector_s"] < 1.35 * r["analytic_s"]
        assert r["event_s"] == pytest.approx(r["vector_s"], rel=0.2)
    headline = next(r for r in records
                    if r["image_mb"] == 8 and r["beta_mbps"] == 1.0)
    assert 90 < headline["vector_s"] < 140
    save_artifact("wakeup_overhead", render_wakeup(records))
