"""The macro-PNA event kernel's wall-clock floor.

The cohort task path's headline claim (DESIGN.md §12): one full
wakeup+heartbeat+bag-of-tasks cycle at 10^6 PNAs completes in under
60 seconds of wall time.  This guard re-runs that scenario and holds
the line — scaled linearly when ``REPRO_FLOOR_SCALE`` trims the fleet
(CI runs at reduced scale; 53.6 s at 10^6 was recorded at 757214e).

Wall-clock guards are machine-dependent, so this is perf-marked::

    pytest benchmarks/test_event_kernel_floor.py --run-perf
    REPRO_FLOOR_SCALE=20000 pytest benchmarks/... --run-perf   # CI

The semantic assertions (bag fully executed, whole fleet recruited,
scale-invariant makespan) run whenever the perf run does, so a "fast"
build that drops work cannot pass.  The 10^3 and 10^4 points also pin
the makespan bit for bit.
"""

import os
import time

import pytest

from benchmarks.scenario import SCENARIO, cycle_bag, gc_paused
from repro.core import OddCISystem
from repro.core.backend import Backend
from repro.core.network import Router
from repro.sim.core import Simulator
from repro.workloads import uniform_bag

FULL_SCALE = 1_000_000
FULL_BUDGET_S = 60.0
#: Fixed-cost allowance for reduced-scale runs: interpreter start-up,
#: image broadcast and job build don't shrink with the fleet.
MIN_BUDGET_S = 10.0
#: The cycle's makespan is scale-invariant (every node gets
#: tasks_per_node tasks) and must be bit-identical across builds.
EXPECTED_MAKESPAN = 29.29000533333334


def run_cycle(n_nodes: int) -> dict:
    """One wakeup+heartbeat+BoT cycle at ``n_nodes`` PNAs, timed from
    fleet build to job completion with the collector off."""
    cfg = SCENARIO
    with gc_paused():
        t0 = time.perf_counter()
        system = OddCISystem(
            seed=cfg["seed"],
            maintenance_interval_s=cfg["maintenance_interval_s"])
        system.add_pnas(n_nodes,
                        heartbeat_interval_s=cfg["heartbeat_interval_s"],
                        dve_poll_interval_s=cfg["dve_poll_interval_s"])
        build_wall_s = time.perf_counter() - t0
        job = cycle_bag(n_nodes)
        t1 = time.perf_counter()
        submission = system.provider.submit_job(
            job, target_size=n_nodes,
            heartbeat_interval_s=cfg["heartbeat_interval_s"])
        report = system.provider.run_job_to_completion(submission, limit_s=1e7)
        run_wall_s = time.perf_counter() - t1
    return {
        "events": system.sim.events_executed,
        "wall_s": round(build_wall_s + run_wall_s, 4),
        "makespan": report.makespan,
        "n_tasks": report.n_tasks,
        "distinct_workers": report.distinct_workers,
    }


@pytest.mark.perf
@pytest.mark.parametrize("scale, makespan, tol", [
    (None, 29.29, 0.01),
    (1_000, EXPECTED_MAKESPAN, 1e-9),
    (10_000, EXPECTED_MAKESPAN, 1e-9),
], ids=["floor", "1000", "10000"])
def test_cohort_event_tier_holds_wall_clock_floor(scale, makespan, tol):
    if scale is None:
        scale = int(os.environ.get("REPRO_FLOOR_SCALE", FULL_SCALE))
    budget = max(MIN_BUDGET_S, FULL_BUDGET_S * scale / FULL_SCALE)
    metrics = run_cycle(scale)
    # The run must be the real workload, not a degenerate fast one.
    assert metrics["n_tasks"] == scale * SCENARIO["tasks_per_node"]
    assert metrics["distinct_workers"] == scale
    assert metrics["events"] > 0
    # Uniform bags complete on a timetable independent of fleet size
    # (4 tasks/node everywhere); the golden makespan pins semantics.
    assert metrics["makespan"] == pytest.approx(makespan, abs=tol)
    assert metrics["wall_s"] < budget, (
        f"event kernel floor broken: {metrics['wall_s']:.2f}s for "
        f"{scale} nodes (budget {budget:.1f}s): {metrics}")


#: ROADMAP item 1's event-tier fleet-build target at 10^6 PNAs
#: (12.6 s when every node was built one by one, at 757214e).
FLEET_BUDGET_S = 3.0


@pytest.mark.perf
def test_fleet_build_floor():
    """``OddCISystem.add_pnas(10**6)`` with the collector off, within
    ``FLEET_BUDGET_S`` scaled like the cycle floor above."""
    scale = int(os.environ.get("REPRO_FLOOR_SCALE", FULL_SCALE))
    budget = max(MIN_BUDGET_S, FLEET_BUDGET_S * scale / FULL_SCALE)
    with gc_paused():
        system = OddCISystem(seed=SCENARIO["seed"])
        t0 = time.perf_counter()
        pnas = system.add_pnas(
            scale, heartbeat_interval_s=SCENARIO["heartbeat_interval_s"],
            dve_poll_interval_s=SCENARIO["dve_poll_interval_s"])
        wall_s = time.perf_counter() - t0
    # The build must be the real fleet: every node registered, online
    # and idle, in one heartbeat cohort.
    assert len(pnas) == scale and system.idle_count() == scale
    assert pnas[-1].census_idx == scale - 1 and pnas[-1].online
    assert len(system.router._cohorts) == 1
    assert wall_s < budget, (
        f"fleet build floor broken: {wall_s:.2f}s for {scale} nodes "
        f"(budget {budget:.1f}s)")


#: Columnar bag dispatch at 10^6 tasks: build the bag, build the
#: Backend, serve one request cohort of 10^6 requesters (0.2-0.3 s on a
#: 2-vCPU host; 2.0-2.2 s when the bag was one Task object per task, at
#: 1b7d53d).
BAG_BUDGET_S = 1.0


@pytest.mark.perf
def test_bag_dispatch_floor():
    """``uniform_bag(10**6)`` + ``Backend`` + one full request cohort,
    with the collector off, within ``BAG_BUDGET_S`` scaled like the
    cycle floor above."""
    scale = int(os.environ.get("REPRO_FLOOR_SCALE", FULL_SCALE))
    budget = max(MIN_BUDGET_S, BAG_BUDGET_S * scale / FULL_SCALE)
    requesters = [f"pna-{i}" for i in range(scale)]
    sim = Simulator(seed=SCENARIO["seed"])
    with gc_paused():
        t0 = time.perf_counter()
        job = uniform_bag(scale, image_bits=SCENARIO["image_bits"],
                          input_bits=SCENARIO["input_bits"],
                          ref_seconds=SCENARIO["ref_seconds"],
                          result_bits=SCENARIO["result_bits"])
        backend = Backend(sim, job, Router(sim), lease_factor=2.0)
        replies = backend.receive_request_cohort(requesters, "i-1")
        wall_s = time.perf_counter() - t0
    # Every requester got its own task, leased at the scalar formula.
    assert len(replies) == backend.in_flight_count == scale
    assert backend.pending_count == 0
    task, holder, _at, lease = backend._in_flight[scale - 1]
    assert holder == requesters[-1] and task.task_id == scale - 1
    assert lease == 2.0 * (SCENARIO["ref_seconds"]
                           * backend.worst_case_slowdown
                           + backend.poll_interval_s)
    assert wall_s < budget, (
        f"bag dispatch floor broken: {wall_s:.2f}s for {scale} tasks "
        f"(budget {budget:.1f}s)")
