"""Federated control plane wall-clock floor (PR: federation).

One full wakeup+heartbeat+bag-of-tasks cycle on a 3-network federation
at 10^5 total PNAs must complete in under 15 seconds of wall time — the
multi-router task fabric, per-shard census and placement matcher may
not cost more than ~5x headroom over the measured ~3s (the tracked
number lives in ``BENCH_federation.json`` at the repo root).

Wall-clock guards are machine-dependent, so this is perf-marked::

    pytest benchmarks/test_federation_floor.py --run-perf
    REPRO_FLOOR_SCALE=20000 pytest benchmarks/... --run-perf   # CI

The semantic assertions (bag fully executed across every network,
whole fleet recruited, scale-invariant makespan equal to the
single-network golden) run whenever the perf run does, plus in the
always-on structural test at small scale — a "fast" federation that
drops tasks or starves a network cannot pass.
"""

import os

import pytest

from repro.perfbench import SCENARIO, run_federation_scenario

FULL_SCALE = 100_000
FULL_BUDGET_S = 15.0
#: Fixed-cost allowance for reduced-scale runs: interpreter start-up,
#: image broadcast and job build don't shrink with the fleet.
MIN_BUDGET_S = 5.0
#: The uniform-bag cycle's timetable is fleet-size invariant and must
#: match the single-network event tier (see test_event_kernel_floor).
GOLDEN_MAKESPAN = 29.29


def _assert_semantics(metrics, scale):
    assert metrics["n_tasks"] == scale * SCENARIO["tasks_per_node"]
    assert metrics["distinct_workers"] == scale
    assert metrics["makespan"] == pytest.approx(GOLDEN_MAKESPAN, abs=0.01)
    split = metrics["completed_by_network"]
    assert len(split) == metrics["n_networks"] == 3
    assert sum(split.values()) == metrics["n_tasks"]
    # Spread placement at equal capacity: every network pulls its share.
    assert min(split.values()) > metrics["n_tasks"] // 4


def test_federation_scenario_is_an_equivalence_check():
    """Small scale, always-on: merged multi-router accounting must match
    the bag exactly, so a green run is a correctness statement."""
    metrics = run_federation_scenario(3_000)
    _assert_semantics(metrics, 3_000)


@pytest.mark.perf
def test_federated_cycle_holds_wall_clock_floor():
    scale = int(os.environ.get("REPRO_FLOOR_SCALE", FULL_SCALE))
    budget = max(MIN_BUDGET_S, FULL_BUDGET_S * scale / FULL_SCALE)
    metrics = run_federation_scenario(scale)
    _assert_semantics(metrics, scale)
    assert metrics["wall_s"] < budget, (
        f"federation floor broken: {metrics['wall_s']:.2f}s for "
        f"{scale} nodes (budget {budget:.1f}s): {metrics}")
