"""The macro-PNA event kernel's wall-clock floor.

The cohort task path's headline claim (DESIGN.md §12): one full
wakeup+heartbeat+bag-of-tasks cycle at 10^6 PNAs completes in under
2 seconds of wall time and 400 MB of peak RSS.  These guards re-run
that scenario and hold the line — scaled linearly when
``REPRO_FLOOR_SCALE`` trims the fleet (CI runs at reduced scale).
``run_cycle(10**6)``, fresh processes on a 2-vCPU x86-64 host:
0.15-0.24 s at 93.4-94.0 MB peak RSS once the census held instant and
instance codes and the Router's node columns and the engine's task-id
and row columns were held (0.44-0.49 s at 178.4-178.6 MB before);
0.66-1.0 s at 329-337 MB peak RSS once the task engine filed slot
ranges, the Backend dropped its unread lease columns and the link
tables kept loss, rate and latency once per profile; 1.0-1.3 s at
604 MB before, once the node row was the only key of a node and
contiguous rows were sliced; 3.2-3.5 s (842 MB) once a bulk fleet held
no object per PNA, 6.7-6.9 s (1,239 MB) before, 10.9-11.2 s at a796baf
(53.6 s was recorded at 757214e).  ``run_cycle(10**7)``, same host:
1.7-2.5 s at 557-564 MB peak RSS (5 runs; 4.6-5.3 s at 1,499 MB
before, 8.4-10.7 s at 2,929 MB earlier), guarded at full scale only.

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

import numpy as np
import pytest

from benchmarks.scenario import (
    SCENARIO, cycle_bag, gc_paused, in_fresh_process)
from repro.core import OddCISystem
from repro.core.backend import Backend
from repro.core.network import Router
from repro.sim.core import Simulator
from repro.workloads import uniform_bag

FULL_SCALE = 1_000_000
FULL_BUDGET_S = 2.0
#: Peak RSS of a fresh process that runs the cycle at full scale
#: (93.4-94.0 MB over 5 runs on a 2-vCPU x86-64 host with 8 GB;
#: 178.4-178.6 before the census codes and the held Router and engine
#: columns, 329 before the Backend's instant codes and the held engine
#: and link columns; a 1.2x margin), and the floor of a reduced-scale
#: budget (the interpreter and numpy take ~45 MB before the first
#: node).
FULL_RSS_MB = 113.0
MIN_RSS_MB = 100.0
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


@pytest.mark.perf
def test_cohort_event_tier_holds_memory_floor():
    """``run_cycle`` in a fresh process peaks within ``FULL_RSS_MB``
    (scaled like the wall budget), with the golden makespan."""
    scale = int(os.environ.get("REPRO_FLOOR_SCALE", FULL_SCALE))
    budget = max(MIN_RSS_MB, FULL_RSS_MB * scale / FULL_SCALE)
    metrics = in_fresh_process("test_event_kernel_floor", "run_cycle", scale)
    assert metrics["distinct_workers"] == scale
    assert metrics["makespan"] == pytest.approx(EXPECTED_MAKESPAN, abs=1e-9)
    assert metrics["rss_mb"] < budget, (
        f"event kernel memory floor broken: {metrics['rss_mb']:.0f} MB "
        f"for {scale} nodes (budget {budget:.0f} MB): {metrics}")


#: The cycle at 10^7 PNAs in a fresh process: 1.7-2.5 s of wall time
#: (build and run) at 557-564 MB peak RSS over 5 runs on a 2-vCPU
#: x86-64 host with 8 GB (4.6-5.3 s and 1,499 MB before the census
#: codes and the held Router and engine columns, 8.4-10.7 s and 2,929
#: MB before the instant codes and held columns); the wall budget keeps
#: its 15 s, the RSS budget a 1.17x margin over the worst run.
TEN_MILLION = 10_000_000
TEN_MILLION_BUDGET_S = 15.0
TEN_MILLION_RSS_MB = 660.0


@pytest.mark.perf
def test_cohort_event_tier_holds_floor_at_ten_million():
    """``run_cycle(10**7)`` in a fresh process finishes within
    ``TEN_MILLION_BUDGET_S`` and peaks within ``TEN_MILLION_RSS_MB``,
    with the golden makespan.  A reduced ``REPRO_FLOOR_SCALE`` (CI)
    leaves the event tier to the floors above: this point needs 0.6 GB."""
    if int(os.environ.get("REPRO_FLOOR_SCALE", FULL_SCALE)) < FULL_SCALE:
        pytest.skip("the 10^7 cycle runs at full scale only")
    metrics = in_fresh_process("test_event_kernel_floor", "run_cycle",
                               TEN_MILLION)
    assert metrics["n_tasks"] == TEN_MILLION * SCENARIO["tasks_per_node"]
    assert metrics["distinct_workers"] == TEN_MILLION
    assert metrics["makespan"] == pytest.approx(EXPECTED_MAKESPAN, abs=1e-9)
    assert metrics["wall_s"] < TEN_MILLION_BUDGET_S, (
        f"event kernel floor broken at 10^7: {metrics}")
    assert metrics["rss_mb"] < TEN_MILLION_RSS_MB, (
        f"event kernel memory floor broken at 10^7: {metrics}")


#: The event-tier fleet-build target at 10^6 PNAs: 0.04-0.05 s on a
#: 2-vCPU host once the columns that stay zero grow on first use,
#: 0.16-0.18 s with a block's PNAs as views built on first access,
#: 2.4-2.9 s with one PNA object per node, 12.6 s when every node was
#: built one by one (at 757214e).
FLEET_BUDGET_S = 0.5


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
#: Backend, serve one request cohort of 10^6 requesters by row (0.07 s
#: on a 2-vCPU host; 0.2-0.3 s when the requesters were id strings;
#: 2.0-2.2 s when the bag was one Task object per task, at 1b7d53d).
BAG_BUDGET_S = 1.0


@pytest.mark.perf
def test_bag_dispatch_floor():
    """``uniform_bag(10**6)`` + ``Backend`` + one full request cohort,
    with the collector off, within ``BAG_BUDGET_S`` scaled like the
    cycle floor above."""
    scale = int(os.environ.get("REPRO_FLOOR_SCALE", FULL_SCALE))
    budget = max(MIN_BUDGET_S, BAG_BUDGET_S * scale / FULL_SCALE)
    sim = Simulator(seed=SCENARIO["seed"])
    router = Router(sim)
    # the requesters "pna-0", "pna-1", ... at rows 0, 1, ...
    router.interner.intern_block("pna-", 0, scale)
    requesters = np.arange(scale)
    with gc_paused():
        t0 = time.perf_counter()
        job = uniform_bag(scale, image_bits=SCENARIO["image_bits"],
                          input_bits=SCENARIO["input_bits"],
                          ref_seconds=SCENARIO["ref_seconds"],
                          result_bits=SCENARIO["result_bits"])
        backend = Backend(sim, job, router, lease_factor=2.0)
        replies = backend.receive_request_cohort(requesters, "i-1")
        wall_s = time.perf_counter() - t0
    # Every requester got its own task, leased at the scalar formula.
    assert len(replies) == backend.in_flight_count == scale
    assert backend.pending_count == 0
    task, holder, _at, lease = backend._in_flight[scale - 1]
    assert holder == f"pna-{scale - 1}" and task.task_id == scale - 1
    assert lease == 2.0 * (SCENARIO["ref_seconds"]
                           * backend.worst_case_slowdown
                           + backend.poll_interval_s)
    assert wall_s < budget, (
        f"bag dispatch floor broken: {wall_s:.2f}s for {scale} tasks "
        f"(budget {budget:.1f}s)")
