"""Federated control plane wall-clock floor (PR: federation).

One full wakeup+heartbeat+bag-of-tasks cycle on a 3-network federation
at 10^5 total PNAs must complete in under 15 seconds of wall time — the
multi-router task fabric, per-shard census and placement matcher may
not cost more than ~5x headroom over the measured ~3s (recorded at
757214e in the federation bench record, see git history).

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
import time

import pytest

from benchmarks.scenario import SCENARIO, cycle_bag, gc_paused
from repro.core.federation import FederatedOddCISystem, NetworkDescriptor
from repro.core.instance import reset_instance_sequence

FULL_SCALE = 100_000
FULL_BUDGET_S = 15.0
#: Fixed-cost allowance for reduced-scale runs: interpreter start-up,
#: image broadcast and job build don't shrink with the fleet.
MIN_BUDGET_S = 5.0
#: The uniform-bag cycle's timetable is fleet-size invariant and must
#: match the single-network event tier (see test_event_kernel_floor).
GOLDEN_MAKESPAN = 29.29
N_NETWORKS = 3


def run_federation_scenario(n_nodes: int) -> dict:
    """One full federated cycle: ``n_nodes`` PNAs across three networks.

    The federated analogue of the event kernel floor's cycle — three
    controller shards over one shared interner, spread placement at full
    capacity, one Backend routing the bag over every shard's fabric —
    timed from fleet build to job completion with the collector off.
    Asserts the merged accounting matches the bag before returning (a
    fast federation that loses tasks cannot score).
    """
    cfg = SCENARIO
    reset_instance_sequence()
    base, extra = divmod(n_nodes, N_NETWORKS)
    descriptors = [
        NetworkDescriptor(name=f"net{i}",
                          capacity=base + (1 if i < extra else 0),
                          cost_per_node_hour=0.5 + 0.5 * i)
        for i in range(N_NETWORKS)]
    with gc_paused():
        t0 = time.perf_counter()
        system = FederatedOddCISystem(
            descriptors, seed=cfg["seed"], placement="spread",
            maintenance_interval_s=cfg["maintenance_interval_s"])
        system.build_fleets(
            heartbeat_interval_s=cfg["heartbeat_interval_s"],
            dve_poll_interval_s=cfg["dve_poll_interval_s"])
        build_wall_s = time.perf_counter() - t0
        job = cycle_bag(n_nodes)
        t1 = time.perf_counter()
        submission = system.provider.submit_job(
            job, target_size=n_nodes,
            heartbeat_interval_s=cfg["heartbeat_interval_s"])
        report = system.provider.run_job_to_completion(
            submission, limit_s=1e7)
        run_wall_s = time.perf_counter() - t1

    completed_by_network = dict(submission.backend.completed_by_network)
    assert sum(completed_by_network.values()) == report.n_tasks, \
        "per-network completion accounting diverged from the bag"
    return {
        "n_networks": N_NETWORKS,
        "wall_s": round(build_wall_s + run_wall_s, 4),
        "makespan": report.makespan,
        "n_tasks": report.n_tasks,
        "distinct_workers": report.distinct_workers,
        "completed_by_network": completed_by_network,
    }


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
