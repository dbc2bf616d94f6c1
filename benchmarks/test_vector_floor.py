"""Vector-tier scaling floor (PR: vector-tier parity).

The rebuilt vector tier's whole claim is constant-per-node cost at
10^5-10^8 nodes: two sequential submissions (one riding a 0.3 churn
storm) against a persistent population must clear
:data:`MIN_NODES_PER_SEC` recruited-nodes-per-second of run wall time.
Points recorded at 757214e (the vector bench record, see git history):
~1.4M nodes/s at 10^5, ~1.3M at 10^6, ~0.5M at 10^7 (and ~175k at the
10^8 smoke, below this floor — the guard is calibrated for the
10^5-10^7 sweep range).  With the distinct-row makespan bisection and
census epochs that write only what changes (DESIGN.md §16), on a
2-vCPU x86-64 host, one run each against a38d145: 10^6 nodes 1.18M ->
4.39M nodes/s (peak RSS 235 -> 219 MB); 10^7 nodes 0.63M -> 3.70M
nodes/s (1320 -> 1241 MB).

The semantic test is always-on (sim-time numbers, machine-independent);
the wall-clock floor is perf-marked::

    pytest benchmarks/test_vector_floor.py --run-perf
    REPRO_FLOOR_SCALE=100000 pytest benchmarks/... --run-perf   # CI
"""

import os
import time

import pytest

from benchmarks.scenario import SCENARIO, gc_paused
from repro.experiments.vector_scale import storm_plan
from repro.net.message import MEGABYTE
from repro.vector.system import VectorOddCISystem
from repro.workloads.bot import uniform_bag_spec

FULL_SCALE = 1_000_000
#: Measured ~1.3M nodes/s at the tracked 10^6 point; generous margin
#: for slower hosts, still tight enough to catch an O(n log n) or
#: per-node-Python regression (those land 10-100x below).
MIN_NODES_PER_SEC = 250_000


def run_vector_scenario(n_nodes: int) -> dict:
    """Vector-tier system throughput at ``n_nodes`` receivers.

    Two sequential submissions against a persistent population (the
    ``vector_scale`` scenario's shape): job 1 rides through a 0.3 churn
    storm, job 2 runs clean on the same clock.  ``nodes_per_sec`` is
    recruited nodes (wakeup sampling, fault masks, census epochs,
    availability integration) per second of run wall time with the
    collector off.  The job is a constant-space bag spec, so a 10^7-node
    point does not materialise 10^8 Task objects.
    """
    cfg = SCENARIO
    with gc_paused():
        system = VectorOddCISystem(int(n_nodes * 1.25) + 10,
                                   seed=cfg["seed"], plan=storm_plan(0.3))
        job = uniform_bag_spec(
            n_nodes * cfg["tasks_per_node"],
            image_bits=8 * MEGABYTE, ref_seconds=30.0,
            input_bits=cfg["input_bits"], result_bits=cfg["result_bits"])
        t0 = time.perf_counter()
        r1 = system.run_job(job, target_size=n_nodes)
        r2 = system.run_job(job, target_size=n_nodes)
        run_wall_s = time.perf_counter() - t0
    recruited = r1.recruited + r2.recruited
    return {
        "nodes": n_nodes,
        "recruited": recruited,
        "makespan_1": round(r1.makespan_s, 3),
        "makespan_2": round(r2.makespan_s, 3),
        "availability_1": round(r1.availability, 4),
        "availability_2": round(r2.availability, 4),
        "efficiency_1": round(r1.efficiency, 4),
        "sim_time": round(system.now, 3),
        "nodes_per_sec": round(recruited / run_wall_s, 1),
    }


def _assert_semantics(metrics):
    assert metrics["recruited"] >= 1.9 * metrics["nodes"]  # two jobs
    assert metrics["makespan_1"] > 0 and metrics["makespan_2"] > 0
    # Job 1 rides the storm: it must cost availability relative to the
    # clean second submission on the same population.  (Makespans are
    # not ordered — recruitment quantization can hand job 2 a higher
    # tasks-per-node ceiling than the storm costs job 1.)
    assert metrics["availability_1"] < metrics["availability_2"], metrics
    assert 0.0 < metrics["efficiency_1"] <= 1.0
    assert metrics["sim_time"] > 0


def test_vector_scenario_semantics_at_smoke_scale():
    """Always-on: the storm/clean submission pair behaves at 10^5."""
    _assert_semantics(run_vector_scenario(100_000))


@pytest.mark.perf
def test_vector_scale_holds_throughput_floor():
    scale = int(os.environ.get("REPRO_FLOOR_SCALE", FULL_SCALE))
    metrics = run_vector_scenario(scale)
    if scale == FULL_SCALE:
        _assert_semantics(metrics)
    assert metrics["nodes_per_sec"] >= MIN_NODES_PER_SEC, (
        f"vector floor broken: {metrics['nodes_per_sec']:.0f} nodes/s "
        f"at {scale} nodes (floor {MIN_NODES_PER_SEC}): {metrics}")
