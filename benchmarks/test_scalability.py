"""Bench S — requirement I: fleets from 10³ to 10⁶ receivers.

Paper expectation: the wakeup process (one broadcast) costs the same
regardless of fleet size; efficiency stays flat as N grows when n/N is
held constant.
"""

from repro.experiments import render_scalability
from repro.runner import Runner


def test_scalability(benchmark, save_artifact):
    records = benchmark.pedantic(
        Runner(seed=0).run, args=("scalability",), rounds=1,
        iterations=1).records
    ws = [r["wakeup_mean_s"] for r in records]
    assert max(ws) - min(ws) < 0.05 * max(ws)
    es = [r["efficiency"] for r in records]
    assert max(es) - min(es) < 0.15
    save_artifact("scalability", render_scalability(records))
