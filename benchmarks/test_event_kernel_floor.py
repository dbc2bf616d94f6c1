"""The macro-PNA event kernel's wall-clock floor.

The cohort task path's headline claim (DESIGN.md §12): one full
wakeup+heartbeat+bag-of-tasks cycle at 10^6 PNAs completes in under
60 seconds of wall time.  This guard re-runs that scenario and holds
the line — scaled linearly when ``REPRO_FLOOR_SCALE`` trims the fleet
(CI runs at reduced scale; the tracked 10^6 number lives in
``BENCH_event_tier.json``).

Wall-clock guards are machine-dependent, so this is perf-marked::

    pytest benchmarks/test_event_kernel_floor.py --run-perf
    REPRO_FLOOR_SCALE=20000 pytest benchmarks/... --run-perf   # CI

The semantic assertions (bag fully executed, whole fleet recruited,
scale-invariant makespan) run whenever the perf run does, so a "fast"
build that drops work cannot pass.
"""

import os

import pytest

from repro.perfbench import SCENARIO, run_scenario

FULL_SCALE = 1_000_000
FULL_BUDGET_S = 60.0
#: Fixed-cost allowance for reduced-scale runs: interpreter start-up,
#: image broadcast and job build don't shrink with the fleet.
MIN_BUDGET_S = 10.0


@pytest.mark.perf
def test_cohort_event_tier_holds_wall_clock_floor():
    scale = int(os.environ.get("REPRO_FLOOR_SCALE", FULL_SCALE))
    budget = max(MIN_BUDGET_S, FULL_BUDGET_S * scale / FULL_SCALE)
    metrics = run_scenario(scale)
    # The run must be the real workload, not a degenerate fast one.
    assert metrics["n_tasks"] == scale * SCENARIO["tasks_per_node"]
    assert metrics["distinct_workers"] == scale
    # Uniform bags complete on a timetable independent of fleet size
    # (4 tasks/node everywhere); the golden makespan pins semantics.
    assert metrics["makespan"] == pytest.approx(29.29, abs=0.01)
    assert metrics["wall_s"] < budget, (
        f"event kernel floor broken: {metrics['wall_s']:.2f}s for "
        f"{scale} nodes (budget {budget:.1f}s): {metrics}")
